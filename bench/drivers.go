package main

import (
	"fmt"
	"io"
	"runtime"

	"parblast"
	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/report"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// The drivers call one layer's exported functions directly, on inputs cut
// from the workload being traced (its database, its first fragment, its
// query sets), and report calibrated host time per operation. They are the
// per-layer cost table that in-situ job times are explained with.

// driverOps is the number of operations runDrivers times; the traced pass
// divides what is left of its time among them.
const driverOps = 34

// opStats is what timing one driver operation gives.
type opStats struct {
	calS    float64 // median calibrated seconds per call
	allocB  float64 // median bytes allocated per call
	mallocs float64 // median heap objects allocated per call
}

// driverSet times the operations of one workload's layers.
type driverSet struct {
	t      *tracer
	budget float64 // host seconds per operation
	cal    float64 // the current layer group's calibration sample
	m      map[string]float64
}

// group starts a layer's group of drivers with a fresh calibration sample.
func (d *driverSet) group(layer string) {
	d.t.traceID = "drivers/" + layer
	d.cal = median([]float64{calibrate(), calibrate(), calibrate()})
}

// time calls op repeatedly for about the per-operation budget (three times
// at least). op returns the raw seconds of the part it wants timed, so that
// it can keep its own preparation out.
func (d *driverSet) time(layer, name string, op func() (float64, error)) (opStats, error) {
	return d.timeN(layer, name, 3, op)
}

// timeN is time with the least number of calls given.
func (d *driverSet) timeN(layer, name string, atLeast int, op func() (float64, error)) (opStats, error) {
	var secs, allocs, mallocs []float64
	var ms0, ms1 runtime.MemStats
	_, err := d.t.call(layer, name, func() error {
		deadline := now() + d.budget
		for i := 0; i < atLeast || now() < deadline; i++ {
			runtime.ReadMemStats(&ms0)
			s, err := op()
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms1)
			secs = append(secs, s)
			allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		return nil
	})
	if err != nil {
		return opStats{}, fmt.Errorf("driver %s.%s: %w", layer, name, err)
	}
	return opStats{calibrated(median(secs), d.cal), median(allocs), median(mallocs)}, nil
}

// record times op and stores its calibrated seconds × scale under metric.
func (d *driverSet) record(layer, name, metric string, scale float64, op func() (float64, error)) error {
	st, err := d.time(layer, name, op)
	d.m[metric] = st.calS * scale
	return err
}

// timed runs f and returns its raw seconds: the usual body of an op.
func timed(f func() error) (float64, error) {
	t := now()
	err := f()
	return now() - t, err
}

// runDrivers times every layer's drivers for one workload and returns the
// per-layer metrics they give.
func (p *pass) runDrivers(t *tracer, s *inSitu, budget float64) (map[string]float64, error) {
	d := &driverSet{t: t, budget: budget, m: make(map[string]float64)}
	for _, run := range []func(*driverSet) error{
		p.driveBlastEngine, p.driveMPI, p.driveMPIIO, p.driveVFS, p.driveFormatDB,
		func(d *driverSet) error { return p.driveEmission(d, s) },
	} {
		if err := run(d); err != nil {
			return nil, err
		}
	}
	return d.m, nil
}

// fragmentOf returns the i-th of n equal slices of the database's records
// as a search fragment.
func fragmentOf(recs []formatdb.Record, i, n int) *blast.Fragment {
	per := (len(recs) + n - 1) / n
	return engine.FragmentFromRecords(recs[i*per : min((i+1)*per, len(recs))])
}

func (p *pass) fragments() int {
	if p.w.Fragments > 0 {
		return p.w.Fragments
	}
	return p.w.Procs - 1
}

// driveBlastEngine times the search kernel and the engine's codecs on
// fragment 0 of the workload's partitioning and on query set 0.
func (p *pass) driveBlastEngine(d *driverSet) error {
	fs := vfs.MustNew(vfs.RAMDisk())
	db, err := formatdb.Format(fs, dbName, p.in.seqs, formatdb.Config{Kind: parblast.Protein})
	if err != nil {
		return err
	}
	recs, err := db.ReadAll(fs)
	if err != nil {
		return err
	}
	queries := p.in.sets[0]
	nq := float64(len(queries))
	opts := blast.DefaultProteinOptions()
	searcher, err := blast.NewSearcher(opts)
	if err != nil {
		return err
	}

	d.group("blast")
	ctx := searcher.NewContext()
	st, err := d.time("blast", "set_query", func() (float64, error) {
		return timed(func() error {
			for _, q := range queries {
				if err := ctx.SetQuery(q); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	d.m["blast.setquery_cal_us"] = st.calS / nq * 1e6
	d.m["blast.setquery_alloc_kb"] = st.allocB / nq / 1e3

	// One prepared context per query, so that SearchFragment is timed alone.
	search := func(s *blast.Searcher, frag *blast.Fragment) (func() (float64, error), *[]*blast.QueryResult, error) {
		ctxs := make([]*blast.Context, len(queries))
		for i, q := range queries {
			ctxs[i] = s.NewContext()
			if err := ctxs[i].SetQuery(q); err != nil {
				return nil, nil, err
			}
		}
		results := make([]*blast.QueryResult, len(queries))
		return func() (float64, error) {
			return timed(func() error {
				for i, q := range queries {
					var err error
					space := engine.SearchSpaceFor(s, q.Len(), db.TotalResidues, db.NumSeqs)
					if results[i], err = ctxs[i].SearchFragment(frag, space); err != nil {
						return err
					}
				}
				return nil
			})
		}, &results, nil
	}
	frag0 := fragmentOf(recs, 0, p.fragments())
	op, results, err := search(searcher, frag0)
	if err != nil {
		return err
	}
	if st, err = d.time("blast", "search_fragment", op); err != nil {
		return err
	}
	d.m["blast.search_fragment_cal_us"] = st.calS / nq * 1e6
	d.m["blast.search_fragment_allocs"] = st.mallocs / nq

	// SearchThreads 4 against 1 on a fragment of one seventh of the database
	// (the 8-rank fragment) whatever the workload, so the ratio is comparable.
	frag7 := fragmentOf(recs, 0, 7)
	opts4 := opts
	opts4.SearchThreads = 4
	searcher4, err := blast.NewSearcher(opts4)
	if err != nil {
		return err
	}
	var threads [2]opStats
	for i, s := range []*blast.Searcher{searcher, searcher4} {
		op, _, err := search(s, frag7)
		if err != nil {
			return err
		}
		if threads[i], err = d.time("blast", fmt.Sprintf("search_threads_%d", s.Options().SearchThreads), op); err != nil {
			return err
		}
	}
	d.m["blast.search_threads4_speedup_x"] = threads[0].calS / threads[1].calS

	// Render every hit block of the query set: the hits of the whole database,
	// because a narrow fragment 0 may hold none.
	whole := fragmentOf(recs, 0, 1)
	op, results, err = search(searcher, whole)
	if err != nil {
		return err
	}
	if _, err := op(); err != nil {
		return err
	}
	resWhole := *results
	type block struct {
		q    *parblast.Sequence
		subj []byte
		hit  *blast.SubjectResult
	}
	byOID := make(map[int][]byte, len(whole.Subjects))
	for _, s := range whole.Subjects {
		byOID[s.OID] = s.Residues
	}
	var blocks []block
	for i, r := range resWhole {
		for _, h := range r.Hits {
			blocks = append(blocks, block{queries[i], byOID[h.OID], h})
		}
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: query set 0 has no hits to format", p.w.Name)
	}
	sizes := make([]int64, len(blocks))
	if st, err = d.time("blast", "format_hit", func() (float64, error) {
		return timed(func() error {
			for i, b := range blocks {
				sizes[i] = int64(len(blast.RenderHit(opts.OutFormat, b.q, b.subj, b.hit, opts.Matrix)))
			}
			return nil
		})
	}); err != nil {
		return err
	}
	d.m["blast.format_hit_cal_us"] = st.calS / float64(len(blocks)) * 1e6

	// engine: the codecs and merge rule, on the whole database's hits merged
	// with those of its first seventh.
	d.group("engine")
	metasOf := func(results []*blast.QueryResult, fragment int, sizes []int64) []engine.QueryMeta {
		var metas []engine.QueryMeta
		n := 0
		for i, r := range results {
			qm := engine.QueryMeta{QueryIndex: i, Fragment: fragment, Work: r.Work}
			for _, h := range r.Hits {
				size := int64(1000)
				if sizes != nil {
					size = sizes[n]
				}
				qm.Hits = append(qm.Hits, engine.MetaFromResult(1+fragment, h, size))
				n++
			}
			metas = append(metas, qm)
		}
		return metas
	}
	metasA := metasOf(resWhole, 0, sizes)
	op, results, err = search(searcher, frag7)
	if err != nil {
		return err
	}
	if _, err := op(); err != nil {
		return err
	}
	metasB := metasOf(*results, 1, nil)

	wire := engine.PackQueries(queries)
	var encoded []byte
	per := func(name, metric string, ops float64, f func() error) error {
		return d.record("engine", name, metric, 1e6/ops, func() (float64, error) { return timed(f) })
	}
	if err := per("encode_wirequeries", "engine.encode_wirequeries_cal_us", 1, func() error {
		encoded = engine.EncodeWireQueries(wire)
		return nil
	}); err != nil {
		return err
	}
	if err := per("decode_wirequeries", "engine.decode_wirequeries_cal_us", 1, func() error {
		_, err := engine.DecodeWireQueries(encoded)
		return err
	}); err != nil {
		return err
	}
	// The job metadata the master broadcasts: a gob shell around the query
	// payload and every fragment's extents.
	type jobMeta struct {
		Queries  []byte
		Title    string
		NumSeqs  int
		TotalLen int64
		Parts    [][]formatdb.Extent
	}
	parts, err := db.Partition(p.fragments())
	if err != nil {
		return err
	}
	meta := jobMeta{Queries: encoded, Title: db.Title, NumSeqs: db.NumSeqs, TotalLen: db.TotalResidues}
	for _, part := range parts {
		meta.Parts = append(meta.Parts, part.Extents)
	}
	if err := per("gob_roundtrip", "engine.gob_roundtrip_cal_us", 1, func() error {
		var back jobMeta
		return engine.DecodeGob(engine.EncodeGob(meta), &back)
	}); err != nil {
		return err
	}
	var metaBytes []byte
	if err := per("encode_querymetas", "engine.encode_querymetas_cal_us", 1, func() error {
		metaBytes = engine.EncodeQueryMetas(metasA)
		return nil
	}); err != nil {
		return err
	}
	if err := per("decode_querymetas", "engine.decode_querymetas_cal_us", 1, func() error {
		_, err := engine.DecodeQueryMetas(metaBytes)
		return err
	}); err != nil {
		return err
	}
	if err := per("combine_querymetas", "engine.combine_querymetas_cal_us", 1, func() error {
		engine.CombineQueryMetas(metasA, metasB, opts.MaxTargetSeqs)
		return nil
	}); err != nil {
		return err
	}
	return per("merge_hits", "engine.merge_hits_cal_us", nq, func() error {
		for i := range metasA {
			hits := append(append([]engine.HitMeta(nil), metasA[i].Hits...), metasB[i].Hits...)
			engine.MergeHits(hits, opts.MaxTargetSeqs)
		}
		return nil
	})
}

// driveMPI times the simulated MPI runtime as the rank count grows. One
// world per rank count runs the operations back to back, and rank 0 reads
// the host clock between them: the phases of one world share whatever state
// the Go scheduler is in, which whole-world times of separate worlds do not
// (spawning 1024 ranks alone varies threefold from world to world). What a
// world costs beyond its phases is the cost of starting the ranks, getting
// each through a first barrier, and joining them.
func (p *pass) driveMPI(d *driverSet) error {
	d.group("mpi")
	cost := simtime.DefaultCostModel()
	payload := make([]byte, 256)
	const pings = 200
	st, err := d.time("mpi", "pingpong.r2", func() (float64, error) {
		return timed(func() error {
			_, err := mpi.Run(2, cost, func(r *mpi.Rank) error {
				for k := 0; k < pings; k++ {
					if r.ID() == 0 {
						r.Send(1, 1, payload)
						r.Recv(1, 2)
					} else {
						r.Recv(0, 1)
						r.Send(0, 2, payload)
					}
				}
				return nil
			})
			return err
		})
	})
	if err != nil {
		return err
	}
	d.m["mpi.pingpong_cal_us_per_msg"] = st.calS / (2 * pings) * 1e6

	const (
		phaseBarrier = iota
		phaseFanIn
		phaseReduce
		phaseBcast
		phaseSpawn
		numPhases
	)
	for _, c := range []struct{ n, reps, worlds int }{{32, 10, 3}, {256, 3, 3}, {1024, 1, 2}} {
		n, reps := c.n, c.reps
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		var phases [numPhases][]float64
		if _, err := d.timeN("mpi", fmt.Sprintf("world.r%d", n), c.worlds, func() (float64, error) {
			var marks [phaseSpawn + 1]float64
			body := func(r *mpi.Rank) error {
				mark := func(i int) {
					if r.ID() == 0 {
						marks[i] = now()
					}
				}
				r.Barrier() // every rank has started
				mark(0)
				for k := 0; k < reps; k++ {
					r.Barrier()
				}
				mark(1 + phaseBarrier)
				if r.ID() == 0 {
					for k := 0; k < reps*(n-1); k++ {
						r.Recv(mpi.AnySource, mpi.AnyTag)
					}
				} else {
					for k := 0; k < reps; k++ {
						r.Send(0, 1, payload)
					}
				}
				mark(1 + phaseFanIn)
				if n >= 256 {
					for k := 0; k < reps; k++ {
						if _, _, err := r.TreeReduce(0, mpi.DefaultTreeFanout, members, payload,
							func(a, b []byte) []byte { return a }); err != nil {
							return err
						}
					}
				}
				mark(1 + phaseReduce)
				if n == 256 {
					for k := 0; k < reps; k++ {
						r.Bcast(0, payload)
					}
				}
				mark(1 + phaseBcast)
				return nil
			}
			whole, err := timed(func() error {
				_, err := mpi.Run(n, cost, body)
				return err
			})
			for i := phaseBarrier; i < phaseSpawn; i++ {
				phases[i] = append(phases[i], marks[i+1]-marks[i])
			}
			phases[phaseSpawn] = append(phases[phaseSpawn], whole-(marks[phaseSpawn]-marks[0]))
			return whole, err
		}); err != nil {
			return err
		}
		perOp := func(phase, ops int) float64 { return calibrated(median(phases[phase]), d.cal) / float64(ops) * 1e6 }
		d.m[fmt.Sprintf("mpi.barrier_cal_us_per_rank.r%d", n)] = perOp(phaseBarrier, reps*n)
		d.m[fmt.Sprintf("mpi.fanin_cal_us_per_msg.r%d", n)] = perOp(phaseFanIn, reps*(n-1))
		if n >= 256 {
			d.m[fmt.Sprintf("mpi.treereduce_cal_us_per_rank.r%d", n)] = perOp(phaseReduce, reps*n)
		}
		if n == 256 {
			d.m["mpi.bcast_cal_us_per_rank.r256"] = perOp(phaseBcast, reps*n)
		}
		if n == 1024 {
			d.m["mpi.spawn_cal_us_per_rank.r1024"] = perOp(phaseSpawn, n)
		}
	}
	return nil
}

// driveMPIIO times collective against independent access on 32 ranks whose
// views interleave record by record, the pattern of pioBLAST's output.
func (p *pass) driveMPIIO(d *driverSet) error {
	d.group("mpiio")
	const ranks, records, recSize = 32, 1024, 512
	cost := simtime.DefaultCostModel()
	views := make([]mpiio.View, ranks)
	datas := make([][]byte, ranks)
	whole := make([]byte, records*recSize)
	for rec := 0; rec < records; rec++ {
		owner := rec % ranks
		views[owner].Segments = append(views[owner].Segments, mpiio.Segment{Offset: int64(rec * recSize), Length: recSize})
		for i := rec * recSize; i < (rec+1)*recSize; i++ {
			whole[i] = byte('A' + rec%26)
		}
		datas[owner] = append(datas[owner], whole[rec*recSize:(rec+1)*recSize]...)
	}
	for _, c := range []struct {
		name string
		body func(f *mpiio.File, r *mpi.Rank) error
	}{
		{"write_collective", func(f *mpiio.File, r *mpi.Rank) error { return f.WriteCollective(datas[r.ID()]) }},
		{"read_collective", func(f *mpiio.File, r *mpi.Rank) error { _, err := f.ReadCollective(); return err }},
		{"write_independent", func(f *mpiio.File, r *mpi.Rank) error { return f.WriteIndependent(datas[r.ID()]) }},
		{"read_independent", func(f *mpiio.File, r *mpi.Rank) error { f.ReadIndependent(); return nil }},
	} {
		body := c.body
		st, err := d.time("mpiio", c.name, func() (float64, error) {
			fs := vfs.MustNew(vfs.XFSLike())
			fs.WriteFile("shared", whole)
			return timed(func() error {
				_, err := mpi.Run(ranks, cost, func(r *mpi.Rank) error {
					f := mpiio.OpenOrCreate(r, fs, "shared")
					if err := f.SetView(views[r.ID()]); err != nil {
						return err
					}
					err := body(f, r)
					r.Barrier()
					return err
				})
				return err
			})
		})
		if err != nil {
			return err
		}
		d.m["mpiio."+c.name+"_cal_us_per_rank"] = st.calS / ranks * 1e6
	}
	return nil
}

// driveVFS times the storage model's access accounting and its byte copies.
func (p *pass) driveVFS(d *driverSet) error {
	d.group("vfs")
	const accesses, chunks, chunk = 20000, 256, 64 << 10
	fs := vfs.MustNew(vfs.NFSLike())
	if err := d.record("vfs", "access", "vfs.access_cal_ns", 1e9/accesses, func() (float64, error) {
		return timed(func() error {
			at := 0.0
			for i := 0; i < accesses; i++ {
				at = fs.Access(at, 4096)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	buf := make([]byte, chunk)
	f := fs.Create("blob")
	const perKB = 1e9 / (chunks * chunk / 1024)
	if err := d.record("vfs", "write_at", "vfs.writeat_cal_ns_per_kb", perKB, func() (float64, error) {
		return timed(func() error {
			for i := 0; i < chunks; i++ {
				f.WriteAt(buf, int64(i)*chunk)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return d.record("vfs", "read_at", "vfs.readat_cal_ns_per_kb", perKB, func() (float64, error) {
		return timed(func() error {
			for i := 0; i < chunks; i++ {
				if n := f.ReadAt(buf, int64(i)*chunk); n != chunk {
					return fmt.Errorf("short read: %d of %d bytes", n, chunk)
				}
			}
			return nil
		})
	})
}

// driveFormatDB times what set-up is made of: input synthesis, formatting
// and partitioning.
func (p *pass) driveFormatDB(d *driverSet) error {
	d.group("formatdb")
	cfg := formatdb.Config{Kind: parblast.Protein}
	var db *formatdb.DB
	fs := vfs.MustNew(vfs.RAMDisk())
	if err := d.record("formatdb", "format", "formatdb.format_cal_ms", 1e3, func() (float64, error) {
		fs = vfs.MustNew(vfs.RAMDisk())
		return timed(func() (err error) {
			db, err = formatdb.Format(fs, dbName, p.in.seqs, cfg)
			return err
		})
	}); err != nil {
		return err
	}
	if err := d.record("formatdb", "open", "formatdb.open_cal_us", 1e6, func() (float64, error) {
		return timed(func() error {
			_, err := formatdb.Open(fs, dbName)
			return err
		})
	}); err != nil {
		return err
	}
	if err := d.record("formatdb", "partition", "formatdb.partition_cal_us", 1e6, func() (float64, error) {
		return timed(func() error {
			_, err := db.Partition(p.fragments())
			return err
		})
	}); err != nil {
		return err
	}
	if err := d.record("formatdb", "physical_fragment", "formatdb.physical_fragment_cal_ms", 1e3, func() (float64, error) {
		fresh := vfs.MustNew(vfs.RAMDisk())
		fdb, err := formatdb.Format(fresh, dbName, p.in.seqs, cfg)
		if err != nil {
			return 0, err
		}
		return timed(func() error {
			_, err := fdb.PhysicalFragment(fresh, 31)
			return err
		})
	}); err != nil {
		return err
	}

	d.group("workload")
	if err := d.record("workload", "synthesize_db", "workload.synthesize_db_cal_ms", 1e3, func() (float64, error) {
		return timed(func() error {
			_, err := parblast.SynthesizeDB(dbConfig(1, len(p.in.seqs)))
			return err
		})
	}); err != nil {
		return err
	}
	if err := d.record("workload", "sample_queries", "workload.sample_queries_cal_ms", 1e3, func() (float64, error) {
		return timed(func() error {
			for k := 0; k < querySets; k++ {
				if _, err := parblast.SampleQueries(p.in.seqs, p.w.queryConfig(int64(k))); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return d.record("workload", "arrivals", "workload.arrivals_cal_us", 1e6, func() (float64, error) {
		return timed(func() error {
			_, err := parblast.Arrivals(p.in.sets[0], parblast.ArrivalConfig{Rate: 16, BatchMean: 2, Seed: 1})
			return err
		})
	})
}

// driveEmission times reading out what the last fully instrumented job
// emitted: registry snapshot, Chrome trace export, run report.
func (p *pass) driveEmission(d *driverSet, s *inSitu) error {
	d.group("emission")
	if err := d.record("metrics", "snapshot", "metrics.snapshot_cal_us", 1e6, func() (float64, error) {
		return timed(func() error { s.lastReg.Snapshot(); return nil })
	}); err != nil {
		return err
	}
	meta := map[string]string{"name": p.w.Name}
	if err := d.record("trace", "chrome_export", "trace.chrome_export_cal_ms", 1e3, func() (float64, error) {
		return timed(func() error { return s.lastCol.WriteChromeTrace(io.Discard, meta) })
	}); err != nil {
		return err
	}
	info := report.RunInfo{Engine: p.w.Engine.String(), Platform: p.w.Platform.String(), Procs: p.w.Procs}
	return d.record("report", "build", "report.build_cal_ms", 1e3, func() (float64, error) {
		return timed(func() error { report.Build(info, s.lastRes, s.lastReg); return nil })
	})
}
