// Package workload generates the synthetic inputs the reproduction's
// experiments run on: protein/DNA databases with realistic residue
// frequencies, and query sets sampled from the database itself — the
// paper's own methodology ("we created several input query sets ... by
// randomly sampling the nr database itself").
//
// Everything is seeded and deterministic, so experiment rows are
// reproducible run to run.
package workload

import (
	"fmt"
	"math/rand"

	"parblast/internal/seq"
)

// Robinson & Robinson amino-acid background frequencies (per mille),
// indexed in the seq.ProteinLetters order ARNDCQEGHILKMFPSTWYV. These are
// the frequencies NCBI BLAST's statistics assume, so synthetic sequences
// score realistically against BLOSUM62.
var proteinFreqs = [20]int{
	78, 51, 45, 54, 19, 43, 63, 74, 22, 51,
	90, 57, 22, 39, 52, 71, 58, 13, 32, 64,
}

// DBConfig describes a synthetic database.
type DBConfig struct {
	// Kind selects protein or DNA residues.
	Kind seq.Kind
	// NumSeqs and MeanLen control size; lengths are uniform in
	// [MeanLen/2, 3·MeanLen/2).
	NumSeqs int
	MeanLen int
	// Seed makes generation reproducible.
	Seed int64
	// IDPrefix names sequences <prefix>_NNNNNN.
	IDPrefix string
	// FamilySize groups sequences into homologous families: the database
	// holds NumSeqs/FamilySize independent founders, each followed by
	// FamilySize-1 mutated copies. Real protein repositories like nr are
	// highly redundant, and family structure is what makes a query hit
	// many subjects — the regime the paper's result-merging optimizations
	// target. 0 or 1 disables grouping.
	FamilySize int
}

// familyMutation is the per-residue mutation rate between a family's
// founder and each of its members.
const familyMutation = 0.15

// Validate rejects empty configurations.
func (c DBConfig) Validate() error {
	if c.NumSeqs < 1 || c.MeanLen < 4 {
		return fmt.Errorf("workload: need ≥1 sequences of mean length ≥4, got %d×%d",
			c.NumSeqs, c.MeanLen)
	}
	return nil
}

// SynthesizeDB generates the database sequences.
func SynthesizeDB(cfg DBConfig) ([]*seq.Sequence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "syn"
	}
	alpha := seq.AlphabetFor(cfg.Kind)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := newResidueSampler(cfg.Kind)
	family := cfg.FamilySize
	if family < 1 {
		family = 1
	}
	out := make([]*seq.Sequence, cfg.NumSeqs)
	var founder []byte
	for i := range out {
		var res []byte
		if family > 1 && i%family != 0 && founder != nil {
			// Family member: mutated copy of the founder.
			res = make([]byte, len(founder))
			copy(res, founder)
			for j := range res {
				if rng.Float64() < familyMutation {
					res[j] = sampler.draw(rng)
				}
			}
		} else {
			n := cfg.MeanLen/2 + rng.Intn(cfg.MeanLen)
			if n < 4 {
				n = 4
			}
			res = make([]byte, n)
			for j := range res {
				res[j] = sampler.draw(rng)
			}
			founder = res
		}
		out[i] = &seq.Sequence{
			Residues: res,
			Alpha:    alpha,
		}
	}
	if family > 1 {
		// Interleave family members across the database: member m of
		// family f moves to position m·numFamilies + f. Real repositories
		// are not sorted by homology, and contiguous families would make
		// one worker own every hit of a query — skewing any partitioned
		// search. (IDs are assigned after the reorder, below.)
		numFamilies := (cfg.NumSeqs + family - 1) / family
		reordered := make([]*seq.Sequence, 0, cfg.NumSeqs)
		for m := 0; m < family; m++ {
			for f := 0; f < numFamilies; f++ {
				i := f*family + m
				if i < cfg.NumSeqs {
					reordered = append(reordered, out[i])
				}
			}
		}
		out = reordered
	}
	for i, s := range out {
		s.ID = fmt.Sprintf("%s_%06d", cfg.IDPrefix, i)
		s.Description = fmt.Sprintf("synthetic %s sequence %d", cfg.Kind, i)
	}
	return out, nil
}

type residueSampler struct {
	cum   []int
	total int
}

func newResidueSampler(kind seq.Kind) *residueSampler {
	s := &residueSampler{}
	if kind == seq.DNA {
		s.cum = []int{1, 2, 3, 4}
		s.total = 4
		return s
	}
	for _, f := range proteinFreqs {
		s.total += f
		s.cum = append(s.cum, s.total)
	}
	return s
}

func (s *residueSampler) draw(rng *rand.Rand) byte {
	x := rng.Intn(s.total)
	for i, c := range s.cum {
		if x < c {
			return byte(i)
		}
	}
	return byte(len(s.cum) - 1)
}

// QueryConfig describes a sampled query set.
type QueryConfig struct {
	// TargetBytes is the approximate total residue volume of the set —
	// the paper parameterizes query sets by size (26 KB ... 289 KB).
	TargetBytes int
	// MeanLen is the mean query length; pieces are cut uniformly in
	// [MeanLen/2, 3·MeanLen/2).
	MeanLen int
	// MutationRate applies point mutations to sampled pieces so queries
	// are homologous rather than identical (0 = exact substrings).
	MutationRate float64
	// Seed makes sampling reproducible.
	Seed int64
}

// Validate rejects unusable configurations.
func (c QueryConfig) Validate() error {
	if c.TargetBytes < 8 || c.MeanLen < 8 {
		return fmt.Errorf("workload: query config too small: %+v", c)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("workload: mutation rate %g outside [0,1]", c.MutationRate)
	}
	return nil
}

// SampleQueries cuts query sequences out of database sequences until the
// target volume is reached.
func SampleQueries(db []*seq.Sequence, cfg QueryConfig) ([]*seq.Sequence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("workload: empty database to sample from")
	}
	alpha := db[0].Alpha
	sampler := newResidueSampler(alpha.Kind())
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*seq.Sequence
	total := 0
	for qi := 0; total < cfg.TargetBytes; qi++ {
		src := db[rng.Intn(len(db))]
		want := cfg.MeanLen/2 + rng.Intn(cfg.MeanLen)
		if want > src.Len() {
			want = src.Len()
		}
		if want < 8 {
			continue
		}
		start := rng.Intn(src.Len() - want + 1)
		res := make([]byte, want)
		copy(res, src.Residues[start:start+want])
		for j := range res {
			if cfg.MutationRate > 0 && rng.Float64() < cfg.MutationRate {
				res[j] = sampler.draw(rng)
			}
		}
		out = append(out, &seq.Sequence{
			ID:          fmt.Sprintf("query_%04d", qi),
			Description: fmt.Sprintf("sampled from %s at %d", src.ID, start),
			Residues:    res,
			Alpha:       alpha,
		})
		total += want
	}
	return out, nil
}

// TotalResidues sums sequence lengths.
func TotalResidues(seqs []*seq.Sequence) int64 {
	var n int64
	for _, s := range seqs {
		n += int64(s.Len())
	}
	return n
}
