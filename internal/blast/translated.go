package blast

import (
	"fmt"
	"sort"

	"parblast/internal/seq"
	"parblast/internal/stats"
)

// Translated search (blastx): a DNA query is translated in all six reading
// frames and each translation is searched against a protein database with
// the ordinary protein kernel. Hits carry their reading frame.

// FrameHit is one subject hit found in one reading frame of the query.
type FrameHit struct {
	Frame int
	Hit   *SubjectResult
}

// TranslatedResult is everything a translated query produced.
type TranslatedResult struct {
	QueryID string
	// Hits from all frames, sorted by (EValue, Score, OID, Frame).
	Hits []FrameHit
	// Work sums the kernel work across frames.
	Work WorkCounters
}

// SearchTranslatedQuery runs a blastx-style search: the DNA query's six
// frame translations against a protein fragment, searched as one batch so
// that the fragment is scanned once for all of them. The searcher must be a
// protein searcher; the search space should describe the protein database
// with the translated query length (callers typically pass len/3).
func SearchTranslatedQuery(s *Searcher, dnaQuery *seq.Sequence, frag *Fragment, space stats.SearchSpace) (*TranslatedResult, error) {
	frames, results, err := searchFrames(s, dnaQuery, frag, space)
	if err != nil {
		return nil, err
	}
	out := &TranslatedResult{QueryID: dnaQuery.ID}
	for i, res := range results {
		out.Work.Add(res.Work)
		for _, hit := range res.Hits {
			out.Hits = append(out.Hits, FrameHit{Frame: frames[i], Hit: hit})
		}
	}
	out.rankHits(s.Options().MaxTargetSeqs)
	return out, nil
}

// searchFrames searches the translations of the DNA query in every frame
// long enough to have one, in seq.Frames order, as one batch: results[i] is
// frames[i]'s.
func searchFrames(s *Searcher, dnaQuery *seq.Sequence, frag *Fragment, space stats.SearchSpace) (frames []int, results []*QueryResult, err error) {
	if s.Options().Matrix.Alphabet().Kind() != seq.Protein {
		return nil, nil, fmt.Errorf("blast: translated search needs a protein searcher")
	}
	if dnaQuery.Alpha.Kind() != seq.DNA {
		return nil, nil, fmt.Errorf("blast: translated search needs a DNA query, got %s", dnaQuery.Alpha.Kind())
	}
	translations, err := seq.TranslateAll(dnaQuery)
	if err != nil {
		return nil, nil, err
	}
	var queries []*seq.Sequence
	var spaces []stats.SearchSpace
	for _, frame := range seq.Frames {
		if q, ok := translations[frame]; ok {
			frames, queries, spaces = append(frames, frame), append(queries, q), append(spaces, space)
		}
	}
	if len(queries) == 0 {
		return nil, nil, nil
	}
	p, err := s.prepareBatch(queries)
	if err != nil {
		return nil, nil, err
	}
	ctx := s.NewContext()
	if err := ctx.UseBatch(queries, p); err != nil {
		return nil, nil, err
	}
	results, err = ctx.SearchBatch(nil, frag, spaces)
	return frames, results, err
}

// rankHits sorts the hits from every frame by (EValue, Score, OID, Frame)
// and keeps the best max.
func (out *TranslatedResult) rankHits(max int) {
	sort.Slice(out.Hits, func(i, j int) bool {
		a, b := out.Hits[i], out.Hits[j]
		if a.Hit.BestEValue() != b.Hit.BestEValue() {
			return a.Hit.BestEValue() < b.Hit.BestEValue()
		}
		if a.Hit.BestScore() != b.Hit.BestScore() {
			return a.Hit.BestScore() > b.Hit.BestScore()
		}
		if a.Hit.OID != b.Hit.OID {
			return a.Hit.OID < b.Hit.OID
		}
		return frameRank(a.Frame) < frameRank(b.Frame)
	})
	if len(out.Hits) > max {
		out.Hits = out.Hits[:max]
	}
}

// frameRank orders frames +1,+2,+3,-1,-2,-3 deterministically.
func frameRank(f int) int {
	for i, v := range seq.Frames {
		if v == f {
			return i
		}
	}
	return len(seq.Frames)
}

// SearchTranslatedDB runs a tblastn-style search: a protein query against
// a DNA fragment whose subjects are translated in all six reading frames.
// The query's word index is built once and reused across frames.
func SearchTranslatedDB(s *Searcher, query *seq.Sequence, dnaFrag *Fragment, space stats.SearchSpace) (*TranslatedResult, error) {
	if s.Options().Matrix.Alphabet().Kind() != seq.Protein {
		return nil, fmt.Errorf("blast: translated-DB search needs a protein searcher")
	}
	if query.Alpha.Kind() != seq.Protein {
		return nil, fmt.Errorf("blast: translated-DB search needs a protein query, got %s", query.Alpha.Kind())
	}
	ctx := s.NewContext()
	if err := ctx.SetQuery(query); err != nil {
		return nil, err
	}
	out := &TranslatedResult{QueryID: query.ID}
	for _, frame := range seq.Frames {
		translated := &Fragment{}
		for i := range dnaFrag.Subjects {
			sub := &dnaFrag.Subjects[i]
			prot, err := seq.Translate(sub.Residues, frame)
			if err != nil {
				return nil, err
			}
			if len(prot) == 0 {
				continue
			}
			translated.Subjects = append(translated.Subjects, Subject{
				OID:      sub.OID,
				ID:       sub.ID,
				Defline:  sub.Defline,
				Residues: prot,
			})
		}
		if len(translated.Subjects) == 0 {
			continue
		}
		res, err := ctx.SearchFragment(translated, space)
		if err != nil {
			return nil, err
		}
		out.Work.Add(res.Work)
		for _, hit := range res.Hits {
			out.Hits = append(out.Hits, FrameHit{Frame: frame, Hit: hit})
		}
	}
	out.rankHits(s.Options().MaxTargetSeqs)
	return out, nil
}
