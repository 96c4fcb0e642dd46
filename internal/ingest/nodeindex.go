package ingest

import "fmt"

// The node index maps a wire node ID to its nodeState. It is a three-level
// radix tree over the 32-bit ID: a directory indexed by the top
// nodeDirBits bits, mid pages by the next nodeMidBits and leaf pages by
// the low nodeLeafBits. The directory grows only to the highest
// registered ID, and a page no registered ID falls in stays nil, so a
// dense fleet costs about one pointer per node and a single ID anywhere
// in the uint32 space costs at most one directory, one mid page and one
// leaf page (see TestNodeIndexFootprint).
//
// A published index is immutable. Readers load it with one atomic
// pointer load and resolve an ID in three dependent loads (directory,
// mid page, leaf page) with no hashing; registration builds the next
// index by copying the directory and only the pages it writes.
const (
	nodeLeafBits = 10
	nodeMidBits  = 10
	nodeDirBits  = 32 - nodeMidBits - nodeLeafBits
)

type (
	nodeLeaf [1 << nodeLeafBits]*nodeState
	nodeMid  [1 << nodeMidBits]*nodeLeaf
)

// nodeIndex is one immutable snapshot of the registered nodes.
type nodeIndex struct {
	dir []*nodeMid
	// count is the number of registered nodes (Stats.Nodes).
	count int
}

// get returns the state of node id, nil when it is not registered.
func (x *nodeIndex) get(id uint32) *nodeState {
	hi := id >> (nodeMidBits + nodeLeafBits)
	if hi >= uint32(len(x.dir)) {
		return nil
	}
	mid := x.dir[hi]
	if mid == nil {
		return nil
	}
	leaf := mid[id>>nodeLeafBits&(1<<nodeMidBits-1)]
	if leaf == nil {
		return nil
	}
	return leaf[id&(1<<nodeLeafBits-1)]
}

// with returns a new index holding x's nodes plus states, keyed by
// spec.Node, or ErrNodeExists — and no index — when one of them is
// registered already or appears twice in states. x is never modified:
// the new index shares every page it does not write.
func (x *nodeIndex) with(states []*nodeState) (*nodeIndex, error) {
	dirLen := len(x.dir)
	for _, ns := range states {
		if hi := int(ns.spec.Node >> (nodeMidBits + nodeLeafBits)); hi >= dirLen {
			dirLen = hi + 1
		}
	}
	next := &nodeIndex{dir: make([]*nodeMid, dirLen), count: x.count + len(states)}
	copy(next.dir, x.dir)
	for _, ns := range states {
		id := ns.spec.Node
		hi, mi := id>>(nodeMidBits+nodeLeafBits), id>>nodeLeafBits&(1<<nodeMidBits-1)
		// A page differing from x's page at the same position was copied
		// by this call already and may be written in place.
		var oldMid *nodeMid
		if int(hi) < len(x.dir) {
			oldMid = x.dir[hi]
		}
		mid := next.dir[hi]
		if mid == nil || mid == oldMid {
			mid = new(nodeMid)
			if oldMid != nil {
				*mid = *oldMid
			}
			next.dir[hi] = mid
		}
		var oldLeaf *nodeLeaf
		if oldMid != nil {
			oldLeaf = oldMid[mi]
		}
		leaf := mid[mi]
		if leaf == nil || leaf == oldLeaf {
			leaf = new(nodeLeaf)
			if oldLeaf != nil {
				*leaf = *oldLeaf
			}
			mid[mi] = leaf
		}
		slot := &leaf[id&(1<<nodeLeafBits-1)]
		if *slot != nil {
			return nil, fmt.Errorf("%w: %d", ErrNodeExists, id)
		}
		*slot = ns
	}
	return next, nil
}
