package topology

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestSpineLeafRoutesPinned fixes every forwarding-table route of a
// multi-pod fabric. With Spines > LeavesPerPod the planes hold 3, 2 and 2
// spines, so both the leaf-plane hash and the per-plane spine hash pick
// among several equal-cost uplinks; a change to the table layout or to
// hashDst that moved any ECMP choice changes the digest. The value was
// recorded with the map-based tables the dense rows replaced.
func TestSpineLeafRoutesPinned(t *testing.T) {
	top, err := NewSpineLeaf(SpineLeafConfig{
		Pods: 3, ToRsPerPod: 3, LeavesPerPod: 3, Spines: 7, HostsPerToR: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	pairs := 0
	for _, src := range top.Hosts() {
		for _, dst := range top.Hosts() {
			path, err := top.Route(src, dst)
			if err != nil {
				t.Fatalf("Route(%d,%d): %v", src, dst, err)
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(len(path)))
			h.Write(buf[:])
			for _, l := range path {
				binary.LittleEndian.PutUint64(buf[:], uint64(l))
				h.Write(buf[:])
			}
			pairs++
		}
	}
	const want = 0x731b5137043a74a5
	if got := h.Sum64(); got != want || pairs != 36*36 {
		t.Errorf("route digest %#x over %d pairs, want %#x over %d", got, pairs, uint64(want), 36*36)
	}
}

// TestHashDstMatchesFNV checks the inline FNV-1a against hash/fnv over the
// same 8 little-endian bytes, so no ECMP choice can move.
func TestHashDstMatchesFNV(t *testing.T) {
	dsts := []NodeID{0, 1, 2, 7, 255, 256, 4095, 10239, 1 << 20, 1<<31 - 1}
	salts := []uint32{0, 1, 2, 3, 16, 0x5aba, 1 << 31, 1<<32 - 1}
	for _, dst := range dsts {
		for _, salt := range salts {
			h := fnv.New32a()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(dst)<<32|uint64(salt))
			h.Write(buf[:])
			if got, want := hashDst(dst, salt), h.Sum32(); got != want {
				t.Errorf("hashDst(%d, %#x) = %#x, want %#x", dst, salt, got, want)
			}
		}
	}
}

// BenchmarkNewSpineLeafHyperscale builds perfbench's 10,240-host fabric:
// 16 pods × 16 ToRs × 4 leaves, 4 spines, 40 hosts per ToR.
func BenchmarkNewSpineLeafHyperscale(b *testing.B) {
	cfg := SpineLeafConfig{
		Pods: 16, ToRsPerPod: 16, LeavesPerPod: 4, Spines: 4, HostsPerToR: 40, Queues: 16,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top, err := NewSpineLeaf(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchTop = top
	}
}

var benchTop *Topology
