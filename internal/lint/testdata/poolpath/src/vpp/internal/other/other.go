// Package other checks poolpath's scope: a package outside
// vpp/internal/sim may append to its own field of the same name.
package other

type buffers struct {
	evFree []int
}

func grow(b *buffers) {
	b.evFree = append(b.evFree, 1)
}

func use() { grow(&buffers{}) }
