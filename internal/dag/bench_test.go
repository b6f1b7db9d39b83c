package dag_test

import (
	"math/rand"
	"testing"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/mesh"
)

// BenchmarkBuild times Builder.Build the way its callers reach it: the
// d=11 butterfly (24,576 nodes) and the 160×160 wavefront grid through
// their family constructors, and a random layered workflow through the
// dagio decoder that the job service runs on every raw payload.
func BenchmarkBuild(b *testing.B) {
	layers := make([]int, 40)
	for i := range layers {
		layers[i] = 100
	}
	payload, err := dagio.MarshalJSON(dag.RandomLayered(rand.New(rand.NewSource(1)), layers, 4))
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() (*dag.Dag, error)
	}{
		{"butterfly11", func() (*dag.Dag, error) { return butterfly.Network(11), nil }},
		{"grid160", func() (*dag.Dag, error) { return mesh.Grid(160, 160), nil }},
		{"dagio_layered", func() (*dag.Dag, error) { return dagio.UnmarshalJSON(payload) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
