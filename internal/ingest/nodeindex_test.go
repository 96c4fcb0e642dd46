package ingest

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"unsafe"
)

// nodeIndexFootprint sums the bytes an index holds: the directory and
// every mid and leaf page (not the nodeStates, which any index holds).
func nodeIndexFootprint(x *nodeIndex) int {
	size := int(unsafe.Sizeof((*nodeMid)(nil))) * cap(x.dir)
	for _, mid := range x.dir {
		if mid == nil {
			continue
		}
		size += int(unsafe.Sizeof(*mid))
		for _, leaf := range mid {
			if leaf != nil {
				size += int(unsafe.Sizeof(*leaf))
			}
		}
	}
	return size
}

// Page edges of the radix split, and both ends of the ID space.
var nodeIndexEdges = []uint32{
	0, 1,
	1<<nodeLeafBits - 1, 1 << nodeLeafBits, 1<<nodeLeafBits + 1,
	1<<(nodeLeafBits+nodeMidBits) - 1, 1 << (nodeLeafBits + nodeMidBits), 1<<(nodeLeafBits+nodeMidBits) + 1,
	5000, 5001, 1 << 31,
	math.MaxUint32 - 1<<nodeLeafBits, math.MaxUint32 - 1, math.MaxUint32,
}

// FuzzNodeIndexEquivalent applies random register batches to a node
// index and to a plain map, and checks every lookup against the map. A
// batch naming a registered node, or one node twice, must be rejected
// and publish nothing; an accepted batch must leave the index it was
// built from unchanged.
func FuzzNodeIndexEquivalent(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 2, 3})
	f.Add([]byte{2, 13, 12, 1, 13, 4, 0, 3, 4, 5, 6})
	f.Add([]byte{1, 0x80, 0xff, 0xff, 0xff, 0xff, 2, 0x80, 0, 4, 0, 0, 1})
	f.Add([]byte{5, 2, 3, 4, 5, 6, 5, 7, 8, 9, 10, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		// An ID is an edge ID (selector < 0x80) or four literal bytes.
		nextID := func() (uint32, bool) {
			b, ok := next()
			if !ok {
				return 0, false
			}
			if b < 0x80 {
				return nodeIndexEdges[int(b)%len(nodeIndexEdges)], true
			}
			if len(data) < 4 {
				return uint32(b), true
			}
			id := binary.LittleEndian.Uint32(data)
			data = data[4:]
			return id, true
		}
		x := &nodeIndex{}
		ref := map[uint32]*nodeState{}
		var probes []uint32
		probes = append(probes, nodeIndexEdges...)
		for range 32 {
			n, ok := next()
			if !ok {
				break
			}
			batch := make([]*nodeState, 0, n%8)
			accept := true
			inBatch := map[uint32]bool{}
			for i := 0; i < int(n%8); i++ {
				id, ok := nextID()
				if !ok {
					break
				}
				if ref[id] != nil || inBatch[id] {
					accept = false
				}
				inBatch[id] = true
				batch = append(batch, &nodeState{spec: NodeSpec{Node: id}})
				probes = append(probes, id, id-1, id+1)
			}
			got, err := x.with(batch)
			if accept != (err == nil) {
				t.Fatalf("batch %v: err = %v, want accepted=%v", inBatch, err, accept)
			}
			if err != nil {
				if !errors.Is(err, ErrNodeExists) || got != nil {
					t.Fatalf("rejected batch: index %v, err %v", got, err)
				}
			}
			// x itself never changes, accepted batch or not.
			for id := range inBatch {
				if x.get(id) != ref[id] {
					t.Fatalf("batch modified the index it was built from at node %d", id)
				}
			}
			if err == nil {
				x = got
				for _, ns := range batch {
					ref[ns.spec.Node] = ns
				}
			}
			if x.count != len(ref) {
				t.Fatalf("count = %d, want %d", x.count, len(ref))
			}
			for _, id := range probes {
				if x.get(id) != ref[id] {
					t.Fatalf("get(%d) = %p, want %p", id, x.get(id), ref[id])
				}
			}
		}
	})
}

// TestNodeIndexFootprint pins the node index's cost: at 5001 dense nodes
// it holds under 10 bytes per node (one pointer plus the amortized mid
// page), one more registration copies only the pages it writes and
// shares every other, and one node at the top of the ID space costs at
// most one full directory, one mid page and one leaf page: 48 KiB.
func TestNodeIndexFootprint(t *testing.T) {
	const dense = 5001
	f := newUnregisteredFixture(t, dense+1, 1)
	if err := f.Server.RegisterNodes(f.Specs[:dense]); err != nil {
		t.Fatal(err)
	}
	before := f.Server.nodes.Load()
	if perNode := float64(nodeIndexFootprint(before)) / dense; perNode > 10 {
		t.Fatalf("dense index holds %.1f bytes per node, want <= 10", perNode)
	}
	if err := f.Server.RegisterNode(f.Specs[dense]); err != nil {
		t.Fatal(err)
	}
	after := f.Server.nodes.Load()
	if before.count != dense || after.count != dense+1 {
		t.Fatalf("count = %d then %d, want %d then %d", before.count, after.count, dense, dense+1)
	}
	written := uint32(dense) >> nodeLeafBits
	if len(after.dir) != 1 || after.dir[0] == before.dir[0] {
		t.Fatal("the mid page the registration writes was not copied")
	}
	for i, leaf := range after.dir[0] {
		switch {
		case uint32(i) == written && (leaf == nil || leaf == before.dir[0][i]):
			t.Fatalf("leaf page %d: written by the registration but not copied", i)
		case uint32(i) != written && leaf != before.dir[0][i]:
			t.Fatalf("leaf page %d: not written by the registration but not shared", i)
		}
	}

	sparse, err := (&nodeIndex{}).with([]*nodeState{{spec: NodeSpec{Node: math.MaxUint32}}})
	if err != nil {
		t.Fatal(err)
	}
	const maxSparse = (1<<nodeDirBits)*8 + int(unsafe.Sizeof(nodeMid{})) + int(unsafe.Sizeof(nodeLeaf{}))
	if got := nodeIndexFootprint(sparse); got > maxSparse || maxSparse > 48<<10 {
		t.Fatalf("node %d alone holds %d bytes, want <= %d (48 KiB)", uint32(math.MaxUint32), got, maxSparse)
	}
}

// TestRegisterNodeConcurrentLookups registers nodes one at a time from
// two goroutines while two others resolve every node ID: a node, once
// visible, stays visible with the same state, and every registration
// lands in the final index.
func TestRegisterNodeConcurrentLookups(t *testing.T) {
	const nodes = 64
	f := newUnregisteredFixture(t, nodes, 1)
	var regs, readers sync.WaitGroup
	for half := 0; half < 2; half++ {
		regs.Add(1)
		go func() {
			defer regs.Done()
			for n := half; n < nodes; n += 2 {
				if err := f.Server.RegisterNode(f.Specs[n]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var seen [nodes]*nodeState
			for {
				select {
				case <-done:
					return
				default:
				}
				x := f.Server.nodes.Load()
				for id := range seen {
					ns := x.get(uint32(id))
					if seen[id] != nil && ns != seen[id] {
						t.Errorf("node %d: state changed or vanished after it was visible", id)
						return
					}
					seen[id] = ns
				}
			}
		}()
	}
	regs.Wait()
	close(done)
	readers.Wait()
	x := f.Server.nodes.Load()
	for id := uint32(0); id < nodes; id++ {
		if x.get(id) == nil {
			t.Fatalf("node %d missing from the final index", id)
		}
	}
	if got := f.Server.Stats().Nodes; got != nodes {
		t.Fatalf("Stats.Nodes = %d, want %d", got, nodes)
	}
}
