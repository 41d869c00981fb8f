package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// item is one generated input: the instance the program solves, its krsp
// text encoding (the serve-mix request body), and a label for reports.
type item struct {
	ins     graph.Instance
	payload []byte
}

// Pool sizes and instance shapes. The workload seed picks every small
// instance; the shapes are fixed here so that two seeds draw from one
// distribution.
const (
	smallPoolSize = 1024 // serve-mix's distinct payloads
	warmBlock     = 256  // mix-small's set-up: the first instances of its stream
	gridSuiteSize = 5    // grid-large; a run solves it in whole passes
	gridWidth     = 100  // grid-large: 20 layers × 100 = N ≈ 2k
	gridLayers    = 20
	gridK         = 3
	reproSeed     = 42 // LayeredGrid seed of the phase-2 non-termination reproducer
)

// smallStream draws the mix-small family one instance at a time: ER,
// Geometric, ISP and Grid in turn, n ≈ 30–150, k ∈ {2,3} and a delay bound
// 1.2–1.3× the minimum k-flow delay. A candidate that cannot host k
// edge-disjoint paths is not a kRSP instance, so the next candidate is
// drawn; no instance is dropped for how the solver treats it.
type smallStream struct {
	r     *rand.Rand
	drawn int
}

func newSmallStream(seed int64) *smallStream {
	return &smallStream{r: rand.New(rand.NewSource(seed))}
}

func (st *smallStream) next() item {
	w := gen.DefaultWeights()
	for {
		r := st.r
		s := r.Int63()
		n := 30 + r.Intn(121)
		k := 2 + r.Intn(2)
		slack := 1.2 + 0.1*r.Float64()
		var ins graph.Instance
		switch st.drawn % 4 {
		case 0:
			ins = gen.ER(s, n, 5.0/float64(n), w)
		case 1:
			ins = gen.Geometric(s, n, 1.8/math.Sqrt(float64(n)), w)
		case 2:
			ins = gen.ISP(s, n-8, 4, w)
		default:
			rows := 5 + r.Intn(6)
			ins = gen.Grid(s, rows, (n+rows-1)/rows, w)
		}
		ins.K = k
		if bounded, ok := gen.WithBound(ins, slack); ok {
			st.drawn++
			return newItem(bounded)
		}
	}
}

// smallPool is the first size instances of the seed's stream.
func smallPool(seed int64, size int) []item {
	st := newSmallStream(seed)
	out := make([]item, size)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// gridSuite is grid-large's fixed suite: LayeredGrid instances at N ≈ 2k
// with k = 3 and the large-tier bound rule (10% above the minimum k-flow
// delay, plus one). Position 0 is the phase-2 non-termination reproducer
// (LayeredGrid seed 42), so every run attempts it; position i ≥ 1 is seed
// 1000+i, whatever its solve does (seed 1003 also loops until the
// deadline). The suite does not depend on the workload seed: at this size
// one instance's solve time, and whether it terminates at all, changes
// with any change of seed or even of vertex numbering, so suites drawn per
// seed would differ by more than any regression bound could allow. It is
// small enough that a run solves it in whole passes (about 10 s each).
func gridSuite() ([]item, error) {
	out := make([]item, 0, gridSuiteSize)
	for i := 0; i < gridSuiteSize; i++ {
		s := int64(1000 + i)
		if i == 0 {
			s = reproSeed
		}
		ins, err := largeInstance(s)
		if err != nil {
			return nil, err
		}
		out = append(out, newItem(ins))
	}
	return out, nil
}

// largeInstance builds one grid-large instance with D = minD + minD/10 + 1.
func largeInstance(seed int64) (graph.Instance, error) {
	ins := gen.LayeredGrid(seed, gridLayers, gridWidth, gen.DefaultWeights())
	ins.K = gridK
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, gridK, shortest.DelayWeight)
	if err != nil {
		return ins, fmt.Errorf("grid-large seed %d: min-delay flow: %w", seed, err)
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	return ins, nil
}

func newItem(ins graph.Instance) item {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = graph.WriteInstance(&buf, ins)
	return item{ins: ins, payload: buf.Bytes()}
}
