package sim

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"bindlock/internal/dfg"
	"bindlock/internal/frontend"
	"bindlock/internal/trace"
)

func compile(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	g, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunComputesValues(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = (a + b) * 2 - b;
`)
	tr := trace.New([]string{"a", "b"}, 2)
	tr.Append([]uint8{10, 20})
	tr.Append([]uint8{200, 100})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	outID := g.Outputs()[0]
	if got := res.Vals[0][outID]; got != 40 { // (10+20)*2-20
		t.Errorf("sample 0 output = %d, want 40", got)
	}
	if got := res.Vals[1][outID]; got != 244 { // ((300 mod 256)*2 - 100) mod 256
		t.Errorf("sample 1 output = %d, want 244", got)
	}
}

func TestKMatrixCounts(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = a + b;
`)
	tr := trace.New([]string{"a", "b"}, 3)
	tr.Append([]uint8{3, 5})
	tr.Append([]uint8{5, 3}) // commutative: same canonical minterm
	tr.Append([]uint8{1, 1})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	addID := g.OpsOfClass(dfg.ClassAdd)[0]
	if got := res.K.Count(dfg.CanonMinterm(dfg.Add, 3, 5), addID); got != 2 {
		t.Errorf("count(3,5) = %d, want 2 (operand order must canonicalise)", got)
	}
	if got := res.K.Count(dfg.CanonMinterm(dfg.Add, 1, 1), addID); got != 1 {
		t.Errorf("count(1,1) = %d, want 1", got)
	}
	if got := res.K.OpTotal(addID); got != 3 {
		t.Errorf("OpTotal = %d, want 3", got)
	}
	if got := len(res.K.OpMinterms(addID)); got != 2 {
		t.Errorf("distinct minterms = %d, want 2", got)
	}
}

func TestSubNotCanonicalised(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = a - b;
`)
	tr := trace.New([]string{"a", "b"}, 2)
	tr.Append([]uint8{9, 4})
	tr.Append([]uint8{4, 9})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	subID := g.OpsOfClass(dfg.ClassAdd)[0]
	if got := res.K.Count(dfg.MkMinterm(9, 4), subID); got != 1 {
		t.Errorf("count(9,4) = %d, want 1", got)
	}
	if got := res.K.Count(dfg.MkMinterm(4, 9), subID); got != 1 {
		t.Errorf("count(4,9) = %d, want 1", got)
	}
}

func TestTopMinterms(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y, z;
y = a + b;
z = a + 7;
`)
	tr := trace.New([]string{"a", "b"}, 4)
	tr.Append([]uint8{7, 7})
	tr.Append([]uint8{7, 7})
	tr.Append([]uint8{7, 2})
	tr.Append([]uint8{1, 2})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	top := res.K.TopMinterms(g, dfg.ClassAdd, 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	// (7,7) occurs twice in y's add and three times in z's add (a=7 with
	// const 7 in the first three samples).
	if top[0].M != dfg.CanonMinterm(dfg.Add, 7, 7) || top[0].Count != 5 {
		t.Errorf("top[0] = %+v, want (7,7) x5", top[0])
	}
	if top[0].Count < top[1].Count || top[1].Count < top[2].Count {
		t.Error("TopMinterms not sorted by count")
	}
}

func TestTopMintermsDeterministicTies(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = a + b;
`)
	tr := trace.New([]string{"a", "b"}, 2)
	tr.Append([]uint8{1, 2})
	tr.Append([]uint8{3, 4})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	top := res.K.TopMinterms(g, dfg.ClassAdd, 2)
	if top[0].M >= top[1].M {
		t.Errorf("ties must break by minterm value: %v", top)
	}
}

// TestTopMintermsMatchesFullSort: on random K matrices, heavy with count
// ties, the top-k selection returns exactly the prefix of the full
// aggregate sorted by count descending, then minterm ascending, for every k.
func TestTopMintermsMatchesFullSort(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := dfg.New("rand")
		a, b := g.AddInput("a"), g.AddInput("b")
		for i := 1 + r.Intn(6); i > 0; i-- {
			g.AddBinary(dfg.Add, a, b)
			g.AddBinary(dfg.Mul, a, b)
		}
		k := NewKMatrix(len(g.Ops))
		distinct := 1 + r.Intn(300)
		for _, op := range g.Ops {
			if !op.Kind.IsBinary() {
				continue
			}
			for n := r.Intn(200); n > 0; n-- {
				k.Add(dfg.Minterm(r.Intn(distinct)), op.ID, 1+r.Intn(4))
			}
		}

		agg := map[dfg.Minterm]int{}
		for _, id := range g.OpsOfClass(dfg.ClassAdd) {
			for _, m := range k.OpMinterms(id) {
				agg[m] += k.Count(m, id)
			}
		}
		var want []MintermCount
		for m, n := range agg {
			want = append(want, MintermCount{M: m, Count: n})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].M < want[j].M
		})
		for _, topK := range []int{0, 1, 2, 10, len(want) / 2, len(want) - 1, len(want), len(want) + 5} {
			if topK < 0 {
				continue
			}
			got := k.TopMinterms(g, dfg.ClassAdd, topK)
			exp := want[:min(topK, len(want))]
			if len(got) != len(exp) {
				t.Fatalf("seed %d k=%d: %d minterms, want %d", seed, topK, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("seed %d k=%d: entry %d = %+v, want %+v", seed, topK, i, got[i], exp[i])
				}
			}
		}
	}
}

func TestRunMissingInput(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = a + b;
`)
	tr := trace.New([]string{"a"}, 1)
	tr.Append([]uint8{1})
	_, err := Run(context.Background(), g, tr)
	if err == nil || !strings.Contains(err.Error(), "missing input") {
		t.Fatalf("err = %v, want missing input", err)
	}
}

func TestOperandABRaw(t *testing.T) {
	g := compile(t, `
kernel k;
input a, b;
output y;
y = a * b;
`)
	tr := trace.New([]string{"a", "b"}, 1)
	tr.Append([]uint8{200, 3})
	res, err := Run(context.Background(), g, tr)
	if err != nil {
		t.Fatal(err)
	}
	mulID := g.OpsOfClass(dfg.ClassMul)[0]
	if got := res.OperandAB[0][mulID]; got != dfg.MkMinterm(200, 3) {
		t.Errorf("OperandAB = %v, want (200,3) uncanonicalised", got)
	}
}

// Property: for any trace, per-op totals equal the trace length and the sum
// of TopMinterms counts over all minterms equals (#class ops) * trace length.
func TestKMatrixConservationQuick(t *testing.T) {
	g, err := frontend.Compile(`
kernel k;
input a, b, c;
output y;
t = a + b;
u = t * c;
y = u + a;
`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		tr := trace.Generate(trace.ImageBlocks, []string{"a", "b", "c"}, 64, seed)
		res, err := Run(context.Background(), g, tr)
		if err != nil {
			return false
		}
		for _, id := range g.OpsOfClass(dfg.ClassAdd) {
			if res.K.OpTotal(id) != 64 {
				return false
			}
		}
		all := res.K.TopMinterms(g, dfg.ClassAdd, 1<<20)
		total := 0
		for _, mc := range all {
			total += mc.Count
		}
		return total == 2*64 // two add-class ops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewKMatrixAndAdd(t *testing.T) {
	k := NewKMatrix(4)
	m := dfg.MkMinterm(1, 2)
	k.Add(m, 2, 5)
	k.Add(m, 2, 3)
	if got := k.Count(m, 2); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if got := k.Count(m, 3); got != 0 {
		t.Fatalf("Count on untouched op = %d", got)
	}
	// Out-of-range op is a safe zero.
	if got := k.Count(m, 99); got != 0 {
		t.Fatalf("Count out of range = %d", got)
	}
	// Add on a nil row allocates.
	k2 := &KMatrix{perOp: make([]map[dfg.Minterm]int, 3)}
	k2.Add(m, 1, 2)
	if k2.Count(m, 1) != 2 {
		t.Fatal("Add on nil row failed")
	}
}
