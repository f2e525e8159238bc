//repro:unsafeview first-word touches of slot keys and values for GetBatch's prefetch pass, gated by the alignment checks in prefetch

package mchtable

import "unsafe"

// prefetch touches the first word of each candidate bucket's used, key
// and value lines, so a batched lookup's random cache misses overlap
// instead of serializing probe-by-probe. It returns a checksum the
// caller should feed to keepAlive32 so the compiler cannot consider the
// loads dead.
//
//repro:noalloc
//repro:gated first-word loads are issued only when the kw/vw alignment checks prove the element 4-aligned
func (c *Core[K, V]) prefetch(cands []uint32) uint32 {
	var zk K
	var zv V
	// A first-word load is only issued for element types whose slice
	// elements are always 4-aligned (by size or by alignment). Loading
	// half of a pointer is still just a load of the core's own backing
	// array, so pointerful K/V are safe too.
	kw := unsafe.Sizeof(zk) >= 4 && (unsafe.Sizeof(zk)%4 == 0 || unsafe.Alignof(zk)%4 == 0)
	vw := unsafe.Sizeof(zv) >= 4 && (unsafe.Sizeof(zv)%4 == 0 || unsafe.Alignof(zv)%4 == 0)
	var sum uint32
	for _, b := range cands {
		if int(b) >= c.buckets {
			continue
		}
		base := int(b) * c.slotsPerBucket
		sum += c.used[base]
		if kw {
			sum += *(*uint32)(unsafe.Pointer(&c.keys[base]))
		}
		if vw {
			sum += *(*uint32)(unsafe.Pointer(&c.vals[base]))
		}
	}
	return sum
}

// keepAlive32 anchors a prefetch checksum so the loads that produced it
// are not eliminated.
//
//go:noinline
func keepAlive32(uint32) {}
