package dag_test

import (
	"fmt"
	"testing"

	"hammerhead/internal/dag/dagtest"
	"hammerhead/internal/types"
)

// BenchmarkDAGLookup times lookup, the scan of the round slots' digest
// tags newest round first, over a DAG retaining 100 full rounds: a hit in the
// newest round, and a miss, which compares every retained vertex's tag once.
func BenchmarkDAGLookup(b *testing.B) {
	const rounds = 100
	for _, n := range []int{4, 50, 100} {
		c, err := types.NewEqualStakeCommittee(n)
		if err != nil {
			b.Fatal(err)
		}
		bld := dagtest.NewBuilder(c)
		for r := types.Round(1); r <= rounds; r++ {
			bld.AddFullRound(r, nil)
		}
		bld.DAG.Prune(1)
		hit, miss := bld.Vertex(rounds, types.ValidatorID(n/2)).Digest(), types.HashBytes([]byte("absent"))
		b.Run(fmt.Sprintf("n=%d/hit", n), func(b *testing.B) {
			for b.Loop() {
				if _, ok := bld.DAG.Lookup(hit); !ok {
					b.Fatal("a retained vertex did not resolve")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/miss", n), func(b *testing.B) {
			for b.Loop() {
				if _, ok := bld.DAG.Lookup(miss); ok {
					b.Fatal("an absent digest resolved")
				}
			}
		})
	}
}
