package openmp

import (
	"fmt"
	"unsafe"
)

// AlignedBytes returns a byte slice of length n whose first element sits on
// an align-byte boundary. align must be a power of two >= 8. This mirrors
// the __kmp_allocate behaviour controlled by KMP_ALIGN_ALLOC: the runtime's
// internal structures are padded out to the requested alignment to avoid
// false sharing between threads.
func AlignedBytes(n, align int) []byte {
	if align < 8 || align&(align-1) != 0 {
		panic(fmt.Sprintf("openmp: alignment %d is not a power of two >= 8", align))
	}
	if n < 0 {
		panic("openmp: negative allocation size")
	}
	raw := make([]byte, n+align)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(unsafe.SliceData(raw))) & uintptr(align-1)); rem != 0 {
		off = align - rem
	}
	return raw[off : off+n : off+n]
}

// AlignedFloat64s returns a float64 slice of length n starting on an
// align-byte boundary.
func AlignedFloat64s(n, align int) []float64 {
	b := AlignedBytes(n*8, align)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// padStride returns the number of float64 slots that span at least align
// bytes; per-thread accumulator arrays use this stride so that threads never
// share a cache line when align >= the machine's line size.
func padStride(align int) int {
	s := align / 8
	if s < 1 {
		s = 1
	}
	return s
}
