package reach

func init() {}

// F is a plain function.
func F() {}

// T has a pointer and a value method.
type T struct{}

func (*T) M() {}

func (T) V() {}

// G is generic.
type G[K comparable, V any] struct{ m map[K]V }

func (g *G[K, V]) Get(k K) V { return g.m[k] }
