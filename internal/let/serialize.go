// Package let implements locally essential trees (Warren & Salmon), the
// distributed-memory core of the paper's Section 3.1: after recursive
// coordinate bisection, each rank owns a local source tree, exposes its
// tree arrays, source particles and cluster charges through RMA windows,
// and then — entirely one-sidedly — pulls from every remote rank (1) the
// tree arrays, from which it builds interaction lists for its local target
// batches, and (2) exactly the remote clusters and source particles those
// lists demand. The union of fetched data is the rank's LET.
package let

import (
	"fmt"

	"barytree/internal/geom"
	"barytree/internal/tree"
)

// Serialization layout of the tree arrays exposed through RMA windows.
const (
	// GeomStride is the number of float64s per node in the geometry array:
	// center (3), radius (1), box lo corner (3), box hi corner (3).
	GeomStride = 10
	// TopoStride is the number of int64s per node in the topology array:
	// child start, child count, particle lo, particle count.
	TopoStride = 4
)

// SerializeTree flattens a cluster tree into the three arrays placed in RMA
// windows: per-node geometry (float64), per-node topology (int64), and the
// concatenated child-index list (int64).
func SerializeTree(t *tree.Tree) (geomArr []float64, topoArr, childArr []int64) {
	n := len(t.Nodes)
	geomArr = make([]float64, 0, n*GeomStride)
	topoArr = make([]int64, 0, n*TopoStride)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		geomArr = append(geomArr,
			nd.Center.X, nd.Center.Y, nd.Center.Z, nd.Radius,
			nd.Box.Lo.X, nd.Box.Lo.Y, nd.Box.Lo.Z,
			nd.Box.Hi.X, nd.Box.Hi.Y, nd.Box.Hi.Z,
		)
		topoArr = append(topoArr,
			int64(len(childArr)), int64(len(nd.Children)),
			int64(nd.Lo), int64(nd.Count()),
		)
		for _, c := range nd.Children {
			childArr = append(childArr, int64(c))
		}
	}
	return geomArr, topoArr, childArr
}

// Deserialize decodes the serialized tree arrays into a tree of the
// remote rank's nodes: each node's Box, Center, Radius, particle range
// [Lo, Hi) in the remote tree order and Children, which is what the MAC
// traversal (interaction.BuildListsWorkers) and the bulk fetch read. The
// particles stay on their home rank, so Particles and Perm are nil, and
// Parent and Level are not carried. It returns an error if the arrays are
// structurally inconsistent.
func Deserialize(geomArr []float64, topoArr, childArr []int64) (*tree.Tree, error) {
	if len(geomArr)%GeomStride != 0 {
		return nil, fmt.Errorf("let: geometry array length %d not a multiple of %d", len(geomArr), GeomStride)
	}
	n := len(geomArr) / GeomStride
	if len(topoArr) != n*TopoStride {
		return nil, fmt.Errorf("let: topology array length %d, want %d", len(topoArr), n*TopoStride)
	}
	children := make([]int32, len(childArr))
	for i, c := range childArr {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("let: child entry %d references invalid node %d", i, c)
		}
		children[i] = int32(c)
	}
	t := &tree.Tree{Nodes: make([]tree.Node, n)}
	for i := range t.Nodes {
		g := geomArr[i*GeomStride:]
		tp := topoArr[i*TopoStride:]
		start, count := tp[0], tp[1]
		if start < 0 || count < 0 || count > int64(len(childArr))-start {
			return nil, fmt.Errorf("let: node %d children [%d,%d) out of bounds %d",
				i, start, start+count, len(childArr))
		}
		if tp[2] < 0 || tp[3] < 0 {
			return nil, fmt.Errorf("let: node %d has particle range start %d count %d", i, tp[2], tp[3])
		}
		t.Nodes[i] = tree.Node{
			Box: geom.Box{
				Lo: geom.Vec3{X: g[4], Y: g[5], Z: g[6]},
				Hi: geom.Vec3{X: g[7], Y: g[8], Z: g[9]},
			},
			Center:   geom.Vec3{X: g[0], Y: g[1], Z: g[2]},
			Radius:   g[3],
			Lo:       int(tp[2]),
			Hi:       int(tp[2] + tp[3]),
			Children: children[start : start+count : start+count],
		}
	}
	return t, nil
}
