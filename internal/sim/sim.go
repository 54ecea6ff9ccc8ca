// Package sim interprets data-flow graphs over input traces and accumulates
// the input-minterm occurrence matrix K of Sec. IV-A.
//
// "One way to calculate K for a given DFG is to simulate the execution of the
// DFG for 'typical' input traces ... Given an input trace for the DFG, we can
// perform time simulation to calculate the number of times a given locked
// input is applied to each operation." This package is exactly that
// simulator.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"bindlock/internal/bitslice"
	"bindlock/internal/dfg"
	"bindlock/internal/fault"
	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/trace"
)

// KMatrix records, per operation, how many times each input minterm was
// applied over the simulated trace. K_{m,n} of the paper is Count(m, n).
// Minterms of commutative kinds are canonicalised, so operand order does not
// split counts.
type KMatrix struct {
	perOp []map[dfg.Minterm]int // indexed by OpID; nil for non-FU ops
}

// NewKMatrix returns an empty K matrix for a graph of numOps operations.
// Counts are normally produced by Run; the constructor exists so that
// analytically specified occurrence tables (such as the paper's Fig. 1 and
// Fig. 2 examples) can be expressed directly.
func NewKMatrix(numOps int) *KMatrix {
	k := &KMatrix{perOp: make([]map[dfg.Minterm]int, numOps)}
	for i := range k.perOp {
		k.perOp[i] = map[dfg.Minterm]int{}
	}
	return k
}

// Add increments K_{m,n} by count. The matrix grows to cover n when the op
// lies beyond the constructed size, keeping Add total on the same domain
// where Count, OpTotal and OpMinterms are defined.
func (k *KMatrix) Add(m dfg.Minterm, n dfg.OpID, count int) {
	if int(n) >= len(k.perOp) {
		grown := make([]map[dfg.Minterm]int, int(n)+1)
		copy(grown, k.perOp)
		k.perOp = grown
	}
	if k.perOp[n] == nil {
		k.perOp[n] = map[dfg.Minterm]int{}
	}
	k.perOp[n][m] += count
}

// Count returns K_{m,n}: occurrences of minterm m at operation n.
func (k *KMatrix) Count(m dfg.Minterm, n dfg.OpID) int {
	if int(n) >= len(k.perOp) || k.perOp[n] == nil {
		return 0
	}
	return k.perOp[n][m]
}

// OpTotal returns the total number of recorded applications at operation n
// (equal to the trace length for FU ops). Out-of-range ops have no recorded
// applications and total 0, matching Count.
func (k *KMatrix) OpTotal(n dfg.OpID) int {
	if int(n) >= len(k.perOp) {
		return 0
	}
	total := 0
	for _, c := range k.perOp[n] {
		total += c
	}
	return total
}

// OpMinterms returns the distinct minterms observed at operation n, empty
// for out-of-range ops (matching Count).
func (k *KMatrix) OpMinterms(n dfg.OpID) []dfg.Minterm {
	if int(n) >= len(k.perOp) {
		return nil
	}
	ms := make([]dfg.Minterm, 0, len(k.perOp[n]))
	for m := range k.perOp[n] {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// NumMinterms returns the total number of distinct (operation, minterm)
// entries recorded in the matrix — the K matrix's support size.
func (k *KMatrix) NumMinterms() int {
	total := 0
	for _, counts := range k.perOp {
		total += len(counts)
	}
	return total
}

// MintermCount is a minterm with an aggregate occurrence count.
type MintermCount struct {
	M     dfg.Minterm
	Count int
}

// TopMinterms returns the k most frequent minterms aggregated over all
// class-c operations of g, in decreasing count order (minterm value breaks
// ties, for determinism). This implements the paper's default candidate
// locked-input selection: "the most obvious relies on the 'typical' input
// trace to select the most common inputs in the DFG (i.e. the top 'x' most
// common inputs)" (Sec. V-B).
func (k *KMatrix) TopMinterms(g *dfg.Graph, c dfg.Class, topK int) []MintermCount {
	ops := g.OpsOfClass(c)
	// The sum of the per-op supports bounds the distinct minterms, so the
	// aggregate never rehashes.
	size := 0
	for _, id := range ops {
		size += len(k.perOp[id])
	}
	agg := make(map[dfg.Minterm]int, size)
	for _, id := range ops {
		for m, n := range k.perOp[id] {
			agg[m] += n
		}
	}
	if topK >= len(agg) {
		all := make([]MintermCount, 0, len(agg))
		for m, n := range agg {
			all = append(all, MintermCount{M: m, Count: n})
		}
		slices.SortFunc(all, cmpMintermCount)
		return all
	}
	if topK <= 0 {
		return []MintermCount{}
	}
	// Keep the best topK in order by insertion: once the buffer is full,
	// almost every minterm loses to its last entry and costs one compare.
	top := make([]MintermCount, 0, topK)
	for m, n := range agg {
		mc := MintermCount{M: m, Count: n}
		if len(top) == topK {
			if cmpMintermCount(mc, top[topK-1]) > 0 {
				continue
			}
			top = top[:topK-1]
		}
		i, _ := slices.BinarySearchFunc(top, mc, cmpMintermCount)
		top = slices.Insert(top, i, mc)
	}
	return top
}

// cmpMintermCount orders TopMinterms' result: count descending, then minterm
// ascending.
func cmpMintermCount(a, b MintermCount) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.M, b.M)
}

// Result carries everything one simulation produces.
type Result struct {
	K *KMatrix
	// Vals[s][n] is the value produced by op n in sample s (inputs carry
	// their sample value; Output ops mirror their operand). Consumed by
	// the RTL switching-activity model.
	Vals [][]uint8
	// OperandAB[s][n] is the raw, non-canonicalised operand pair applied
	// to binary op n in sample s (zero for non-binary ops).
	OperandAB [][]dfg.Minterm
}

// ctxEvery is the per-sample stride between context checks: samples are
// microseconds of work, so a per-sample check would dominate the loop.
const ctxEvery = 256

// minParallelSamples is the trace length below which sharding is not worth
// the fan-out overhead.
const minParallelSamples = 2 * ctxEvery

// newRunMatrix builds the K matrix Run populates: one count map per binary
// (FU) operation of g.
func newRunMatrix(g *dfg.Graph) *KMatrix {
	k := &KMatrix{perOp: make([]map[dfg.Minterm]int, len(g.Ops))}
	for _, op := range g.Ops {
		if op.Kind.IsBinary() {
			k.perOp[op.ID] = map[dfg.Minterm]int{}
		}
	}
	return k
}

// addAll merges src's counts into k. Integer counts are additive, so merging
// per-worker matrices in task order reproduces the sequential matrix
// exactly.
func (k *KMatrix) addAll(src *KMatrix) {
	for n, counts := range src.perOp {
		if len(counts) == 0 {
			continue
		}
		if k.perOp[n] == nil {
			k.perOp[n] = map[dfg.Minterm]int{}
		}
		for m, c := range counts {
			k.perOp[n][m] += c
		}
	}
}

// evalSample interprets one trace sample, incrementing k and recording the
// per-op values and raw operand pairs into res at index s. It is the scalar
// reference for the bit-sliced block evaluator; Run's output must stay
// bit-identical to driving this over every sample in order.
func evalSample(g *dfg.Graph, inputIdx map[dfg.OpID]int, sample []uint8, s int, k *KMatrix, res *Result) {
	vals := make([]uint8, len(g.Ops))
	ab := make([]dfg.Minterm, len(g.Ops))
	for _, op := range g.Ops {
		switch op.Kind {
		case dfg.Input:
			vals[op.ID] = sample[inputIdx[op.ID]]
		case dfg.Const:
			vals[op.ID] = op.Val
		case dfg.Output:
			vals[op.ID] = vals[op.Args[0]]
		default:
			a := vals[op.Args[0]]
			b := vals[op.Args[1]]
			vals[op.ID] = dfg.EvalKind(op.Kind, a, b)
			ab[op.ID] = dfg.MkMinterm(a, b)
			k.perOp[op.ID][dfg.CanonMinterm(op.Kind, a, b)]++
		}
	}
	res.Vals[s] = vals
	res.OperandAB[s] = ab
}

// blockState is the per-worker scratch of the bit-sliced evaluator: one Vec
// per op, reused across blocks, plus the input packing buffer.
type blockState struct {
	vecs []bitslice.Vec
	buf  [bitslice.Lanes]uint8
}

func newBlockState(g *dfg.Graph) *blockState {
	return &blockState{vecs: make([]bitslice.Vec, len(g.Ops))}
}

// evalBlock interprets lanes consecutive samples starting at s0 through the
// bit-sliced evaluator: one graph walk computes all lanes at once, then each
// lane unpacks into the same per-sample Vals/OperandAB/K writes evalSample
// performs, in the same order — the block path is bit-identical to the scalar
// path by construction.
func evalBlock(g *dfg.Graph, inputIdx map[dfg.OpID]int, tr *trace.Trace, s0, lanes int, k *KMatrix, res *Result, st *blockState) {
	for _, op := range g.Ops {
		switch op.Kind {
		case dfg.Input:
			idx := inputIdx[op.ID]
			for l := 0; l < lanes; l++ {
				st.buf[l] = tr.Samples[s0+l][idx]
			}
			st.vecs[op.ID] = bitslice.Pack(st.buf[:lanes])
		case dfg.Const:
			st.vecs[op.ID] = bitslice.Splat(op.Val)
		case dfg.Output:
			st.vecs[op.ID] = st.vecs[op.Args[0]]
		default:
			st.vecs[op.ID] = bitslice.Eval(op.Kind, st.vecs[op.Args[0]], st.vecs[op.Args[1]])
		}
	}
	for l := 0; l < lanes; l++ {
		vals := make([]uint8, len(g.Ops))
		ab := make([]dfg.Minterm, len(g.Ops))
		for _, op := range g.Ops {
			vals[op.ID] = st.vecs[op.ID].Get(l)
			if op.Kind.IsBinary() {
				a := vals[op.Args[0]]
				b := vals[op.Args[1]]
				ab[op.ID] = dfg.MkMinterm(a, b)
				k.perOp[op.ID][dfg.CanonMinterm(op.Kind, a, b)]++
			}
		}
		res.Vals[s0+l] = vals
		res.OperandAB[s0+l] = ab
	}
}

// chunkBounds splits n items into `chunks` contiguous balanced ranges:
// chunk i covers [bounds[i], bounds[i+1]).
func chunkBounds(n, chunks int) []int {
	b := make([]int, chunks+1)
	for i := 0; i <= chunks; i++ {
		b[i] = i * n / chunks
	}
	return b
}

// Run interprets g over tr, producing the K matrix and per-sample values.
// Evaluation is 64-way bit-sliced (see internal/bitslice): each graph walk
// computes a block of 64 samples, which then unpack into the same per-sample
// records a scalar walk would write, so results are bit-identical to the
// scalar interpreter (evalSample, kept as the differential-test reference).
// Every DFG input must be present in the trace. Samples are sharded across
// the worker pool configured on ctx (see internal/parallel); per-worker K
// matrices merge in shard order, so the Result is bit-identical to a
// single-worker run. Cancellation is honoured at sample granularity; an
// interrupted run returns the partial Result covering a contiguous sample
// prefix (Vals/OperandAB truncated, K restricted to that prefix) inside the
// typed error.
func Run(ctx context.Context, g *dfg.Graph, tr *trace.Trace) (*Result, error) {
	return RunN(ctx, g, tr, 0)
}

// RunN is Run with an explicit worker count; 0 resolves from the context's
// parallelism setting, falling back to GOMAXPROCS.
func RunN(ctx context.Context, g *dfg.Graph, tr *trace.Trace, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := fault.Hit(ctx, "sim.run"); err != nil {
		return nil, fmt.Errorf("sim: run: %w", err)
	}
	inputIdx := make(map[dfg.OpID]int)
	for _, id := range g.Inputs() {
		idx := tr.Index(g.Ops[id].Name)
		if idx < 0 {
			return nil, fmt.Errorf("sim: trace missing input %q of %q", g.Ops[id].Name, g.Name)
		}
		inputIdx[id] = idx
	}

	hook := progress.FromContext(ctx)
	progress.Start(hook, "simulate", g.Name)
	k := newRunMatrix(g)
	res := &Result{
		K:         k,
		Vals:      make([][]uint8, tr.Len()),
		OperandAB: make([][]dfg.Minterm, tr.Len()),
	}

	if m := metrics.FromContext(ctx); m != nil {
		start := time.Now()
		// res.Vals is truncated to the completed prefix on interruption, so
		// the deferred read counts exactly the samples that ran.
		defer func() {
			elapsed := time.Since(start)
			m.ObserveDuration("sim_run_seconds", elapsed)
			n := len(res.Vals)
			m.Add("sim_samples_total", int64(n))
			m.Add("sim_kmatrix_minterms_total", int64(res.K.NumMinterms()))
			if sec := elapsed.Seconds(); sec > 0 {
				m.Set("sim_samples_per_second", float64(n)/sec)
			}
		}()
	}

	w := parallel.Workers(ctx, workers)
	if w > 1 && tr.Len() >= minParallelSamples {
		return runSharded(ctx, g, tr, inputIdx, w, hook, res)
	}

	st := newBlockState(g)
	for s := 0; s < tr.Len(); s += bitslice.Lanes {
		// ctxEvery is a multiple of the lane width, so block starts land on
		// exactly the check points the scalar loop honoured.
		if s%ctxEvery == 0 {
			if cerr := interrupt.Check(ctx, "sim: run", nil); cerr != nil {
				res.Vals = res.Vals[:s]
				res.OperandAB = res.OperandAB[:s]
				progress.End(hook, "simulate", fmt.Sprintf("interrupted at sample %d/%d", s, tr.Len()))
				return res, interrupt.Rewrap("sim: run", cerr, res)
			}
			progress.Tick(hook, "simulate", s, tr.Len())
		}
		lanes := tr.Len() - s
		if lanes > bitslice.Lanes {
			lanes = bitslice.Lanes
		}
		evalBlock(g, inputIdx, tr, s, lanes, k, res, st)
	}
	progress.End(hook, "simulate", fmt.Sprintf("%d samples", tr.Len()))
	return res, nil
}

// runSharded fans the samples out over w contiguous shards. Each worker
// accumulates a private K matrix and writes Vals/OperandAB into its own
// disjoint index range; the shard matrices merge in shard order afterwards.
// On interruption the partial Result covers the longest contiguous sample
// prefix — completed shards up to the first incomplete one plus that shard's
// finished samples — matching the shape a sequential run leaves behind.
func runSharded(ctx context.Context, g *dfg.Graph, tr *trace.Trace, inputIdx map[dfg.OpID]int, w int, hook progress.Hook, res *Result) (*Result, error) {
	bounds := chunkBounds(tr.Len(), w)
	shardK := make([]*KMatrix, w)
	shardDone := make([]int, w) // samples completed per shard
	var ticks atomic.Int64
	done, perr := parallel.ForEach(ctx, w, w, func(tctx context.Context, ci int) error {
		lo, hi := bounds[ci], bounds[ci+1]
		sk := newRunMatrix(g)
		shardK[ci] = sk
		st := newBlockState(g)
		for s := lo; s < hi; s += bitslice.Lanes {
			if (s-lo)%ctxEvery == 0 {
				if cerr := interrupt.Check(tctx, "sim: run", nil); cerr != nil {
					shardDone[ci] = s - lo
					return cerr
				}
				if s > lo {
					progress.Tick(hook, "simulate", int(ticks.Add(ctxEvery)), tr.Len())
				}
			}
			lanes := hi - s
			if lanes > bitslice.Lanes {
				lanes = bitslice.Lanes
			}
			evalBlock(g, inputIdx, tr, s, lanes, sk, res, st)
		}
		shardDone[ci] = hi - lo
		return nil
	})
	if perr == nil {
		for _, sk := range shardK {
			res.K.addAll(sk)
		}
		progress.End(hook, "simulate", fmt.Sprintf("%d samples", tr.Len()))
		return res, nil
	}

	// Interrupted: assemble the contiguous prefix.
	prefix := 0
	for ci := 0; ci < w; ci++ {
		if shardK[ci] != nil && (done[ci] || shardDone[ci] > 0) {
			// A fully completed shard contributes whole; the first
			// incomplete shard contributes its finished samples (its
			// private K covers exactly those).
			res.K.addAll(shardK[ci])
		}
		if !done[ci] {
			prefix = bounds[ci] + shardDone[ci]
			break
		}
		prefix = bounds[ci+1]
	}
	res.Vals = res.Vals[:prefix]
	res.OperandAB = res.OperandAB[:prefix]
	progress.End(hook, "simulate", fmt.Sprintf("interrupted at sample %d/%d", prefix, tr.Len()))
	return res, interrupt.Rewrap("sim: run", perr, res)
}
