package a

// Generic callees: the closure follows explicitly instantiated calls
// (an index expression around the callee) as well as inferred ones.

type modeA struct{}

type modeB struct{ _ byte }

// HotGeneric is a hot-path root calling generic functions both ways.
//
//tea:hotpath
func HotGeneric(n int) {
	genCallee[modeA](n)
	genPair[modeA, modeB](n)
	genInferred(n)
}

func genCallee[M modeA | modeB](n int) {
	_ = make([]int, n) // want `make allocates`
}

func genPair[M, N modeA | modeB](n int) {
	sink = append(sink, n) // want `append may grow and reallocate`
}

func genInferred[T any](v T) {
	_ = make([]T, 1) // want `make allocates`
}
