// Package keyed maps arbitrary typed keys to the single 64-bit
// SipHash-2-4 digest the rest of the library runs on. The paper's whole
// point is that ONE hash evaluation per item suffices to drive balanced
// allocation; Hasher[K] makes that discipline the API's contract: every
// container operation spends exactly one keyed hash evaluation, and
// everything downstream — shard routing, the (f, g) double-hashing pair,
// all d candidate buckets, online-resize re-placement — derives from the
// digest it returns.
//
// Built-in hashers cover the common key shapes with zero allocations per
// call:
//
//   - Uint64 / Int hash the key's 8-byte little-endian encoding (the
//     portable encoding, byte-identical on every architecture, and
//     byte-identical to the library's historical uint64 path).
//   - String / StringOf hash a string's bytes in place (no copy).
//   - Bytes hashes a raw []byte (not a Hasher — slices are not
//     comparable — but the same digest a string of those bytes gets).
//   - BytesOf views a fixed-size, pointer-free, padding-free struct or
//     array as its in-memory bytes.
//   - ForType picks the right one of the above from K itself.
//
// All hashers are pure functions of (SipKey, key): two containers built
// with the same seed and hasher digest a key identically, which is what
// makes digests safe to persist, compare across tables, and re-derive
// candidates from at any geometry.

//repro:unsafeview in-place byte views of keys, gated by byteIdentity (BytesOf) or the reflect.Kind switch (ForType)

package keyed

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/hashes"
)

// Hasher computes the single keyed 64-bit digest of a key of type K —
// the one hash evaluation per operation that the paper's double-hashing
// discipline allows. Implementations must be deterministic pure
// functions: equal keys (in the == sense) under equal SipKeys must yield
// equal digests.
type Hasher[K comparable] func(key hashes.SipKey, k K) uint64

// Uint64 hashes a uint64 key as its 8-byte little-endian encoding. This
// is byte-identical to the digest the uint64 container APIs have always
// computed, so typed and legacy paths interoperate on the same digests.
//
//repro:noalloc
func Uint64(key hashes.SipKey, k uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], k)
	return hashes.SipHash24(key, buf[:])
}

// Int hashes an int key as the 8-byte little-endian encoding of its
// two's-complement 64-bit value (portable across 32/64-bit platforms).
//
//repro:noalloc
func Int(key hashes.SipKey, k int) uint64 { return Uint64(key, uint64(int64(k))) }

// String hashes a string key's bytes in place — no copy, no allocation.
//
//repro:noalloc
func String(key hashes.SipKey, k string) uint64 { return hashes.SipHash24String(key, k) }

// Bytes digests a raw byte slice. []byte is not comparable, so this is
// not a Hasher; it exists for callers that hash raw chunks (content
// digests, packet payloads) before keying a container by something
// comparable. Bytes(k, b) == String(k, string(b)).
//
//repro:noalloc
func Bytes(key hashes.SipKey, b []byte) uint64 { return hashes.SipHash24(key, b) }

// StringOf returns the Hasher for any string-backed key type.
func StringOf[K ~string]() Hasher[K] {
	return func(key hashes.SipKey, k K) uint64 { return hashes.SipHash24String(key, string(k)) }
}

// BytesOf returns a Hasher that digests K's in-memory bytes — the
// zero-allocation path for fixed-size composite keys (packet 5-tuples,
// coordinate pairs, fixed digests as [N]byte arrays).
//
// It panics unless K's bytes determine key identity, which requires K to
// be pointer-free (no pointers, strings, slices, maps, channels, funcs
// or interfaces anywhere inside — their bytes are addresses, not
// values), float-free (±0.0 compare equal but differ in bits) and
// padding-free (Go does not guarantee padding bytes are zeroed, so two
// equal structs could carry different padding). Pad explicitly with
// named fields to eliminate padding, or supply a custom Hasher.
//
// Multi-byte fields are viewed at native endianness: digests are
// deterministic within a platform but not across platforms with
// different byte orders (use a custom Hasher with an explicit encoding
// if cross-platform digest stability matters).
func BytesOf[K comparable]() Hasher[K] {
	t := reflect.TypeFor[K]()
	if err := byteIdentity(t); err != nil {
		panic(fmt.Sprintf("keyed: BytesOf[%v]: %v", t, err))
	}
	size := int(t.Size())
	return func(key hashes.SipKey, k K) uint64 {
		return hashes.SipHash24(key, unsafe.Slice((*byte)(unsafe.Pointer(&k)), size))
	}
}

// byteIdentity reports whether a type's in-memory bytes determine ==
// identity: fixed size, no indirection, no floats, no padding.
//
//repro:unsafegate
func byteIdentity(t reflect.Type) error {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr:
		return nil
	case reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return fmt.Errorf("%v: float keys compare equal across distinct bit patterns (±0.0), so their bytes cannot serve as identity", t)
	case reflect.Array:
		if err := byteIdentity(t.Elem()); err != nil {
			return err
		}
		return nil
	case reflect.Struct:
		var fields uintptr
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if err := byteIdentity(f.Type); err != nil {
				return err
			}
			fields += f.Type.Size()
		}
		if fields != t.Size() {
			return fmt.Errorf("%v carries %d padding byte(s), whose contents Go does not define; pad explicitly with named fields", t, t.Size()-fields)
		}
		return nil
	default:
		return fmt.Errorf("%v (kind %v) stores an address, not a value", t, t.Kind())
	}
}

// ForType returns the built-in Hasher for K: the little-endian integer
// encoding for integer-kind keys (so ForType[uint64]() digests exactly
// like Uint64), the in-place string hasher for string-kind keys, and
// BytesOf for fixed-size arrays and structs. It panics for key types
// with no byte-identity (floats, pointers, interfaces, ...); supply a
// custom Hasher for those.
//
//repro:gated each arm's view is proven sound by its reflect.Kind: the kind fixes K's layout before any view is built
func ForType[K comparable]() Hasher[K] {
	t := reflect.TypeFor[K]()
	switch t.Kind() {
	case reflect.String:
		return func(key hashes.SipKey, k K) uint64 {
			// K's kind is string, so K and string share one layout.
			return hashes.SipHash24String(key, *(*string)(unsafe.Pointer(&k)))
		}
	case reflect.Uint64:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, *(*uint64)(unsafe.Pointer(&k)))
		}
	case reflect.Uintptr:
		// uintptr is 4 bytes on 32-bit platforms: read it at its own
		// width, then widen.
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*uintptr)(unsafe.Pointer(&k))))
		}
	case reflect.Int64:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*int64)(unsafe.Pointer(&k))))
		}
	case reflect.Int:
		return func(key hashes.SipKey, k K) uint64 {
			return Int(key, *(*int)(unsafe.Pointer(&k)))
		}
	case reflect.Uint:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*uint)(unsafe.Pointer(&k))))
		}
	case reflect.Int32:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(int64(*(*int32)(unsafe.Pointer(&k)))))
		}
	case reflect.Uint32:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*uint32)(unsafe.Pointer(&k))))
		}
	case reflect.Int16:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(int64(*(*int16)(unsafe.Pointer(&k)))))
		}
	case reflect.Uint16:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*uint16)(unsafe.Pointer(&k))))
		}
	case reflect.Int8:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(int64(*(*int8)(unsafe.Pointer(&k)))))
		}
	case reflect.Uint8:
		return func(key hashes.SipKey, k K) uint64 {
			return Uint64(key, uint64(*(*uint8)(unsafe.Pointer(&k))))
		}
	case reflect.Bool:
		return func(key hashes.SipKey, k K) uint64 {
			var v uint64
			if *(*bool)(unsafe.Pointer(&k)) {
				v = 1
			}
			return Uint64(key, v)
		}
	case reflect.Array, reflect.Struct:
		return BytesOf[K]()
	default:
		panic(fmt.Sprintf("keyed: no built-in hasher for %v (kind %v); supply a custom Hasher[%v]", t, t.Kind(), t))
	}
}

// DigestBatch evaluates h once per key — the contract's one keyed hash
// evaluation each — filling dst[i] with keys[i]'s digest. dst must hold
// at least len(keys) entries. Hoisting a whole batch's digests into one
// tight loop is the first phase of the batched lookup path
// (cmap.Map.GetBatch), which then routes and probes key by key.
//
//repro:noalloc
func DigestBatch[K comparable](h Hasher[K], key hashes.SipKey, keys []K, dst []uint64) {
	if len(dst) < len(keys) {
		panic("keyed: DigestBatch dst does not cover keys")
	}
	for i, k := range keys {
		dst[i] = h(key, k)
	}
}
