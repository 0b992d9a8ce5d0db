// Package shard partitions the rating engine's per-object state across
// N independent shard workers. Objects are the unit of placement — a
// stable hash of the object ID picks the shard, so one object's
// time-sorted rating sequence (the signal the detector models) always
// lives whole in exactly one shard. Trust is global: raters span
// shards, so Procedure 2's records are folded across shards in a
// canonical order that keeps results bit-identical for any shard
// count.
package shard

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rating"
)

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// Hash64 is the stable FNV-1a 64-bit hash of key. It is the only hash
// the router uses, so shard placement never changes across runs,
// builds or platforms — recovery depends on replaying ratings into
// the same shard that logged them.
func Hash64(key []byte) uint64 {
	h := fnv64Offset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnv64Prime
	}
	return h
}

// Index maps key to a shard in [0, n). n must be positive; Index
// panics otherwise (the router validates its shard count at
// construction, so a panic here is a programming error, not input).
func Index(key []byte, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("shard: non-positive shard count %d", n))
	}
	return int(Hash64(key) % uint64(n))
}

// idKey is what shard placement and the keyspace ring hash for an
// object or rater ID: the ID's 8-byte little-endian encoding. These
// bytes are an on-disk and wire format, so they never change.
func idKey(id int64) [8]byte {
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(id))
	return key
}

// ShardFor places an object: the object ID's 8-byte little-endian
// encoding hashed into [0, n).
func ShardFor(obj rating.ObjectID, n int) int {
	key := idKey(int64(obj))
	return Index(key[:], n)
}

// KeyPoint maps an object to its point on the cluster keyspace ring:
// the low 32 bits of the same FNV-1a hash ShardFor uses. Cluster
// membership assigns each node a contiguous [lo, hi) range of this
// 2^32 space, so ownership — like shard placement — never moves
// across runs, builds or platforms.
func KeyPoint(obj rating.ObjectID) uint32 {
	key := idKey(int64(obj))
	return uint32(Hash64(key[:]))
}

// RaterPoint maps a rater to the same 2^32 ring. Trust state is
// replicated to every cluster node, but scatter-gather reads over the
// rater set (e.g. a merged /v1/malicious) still partition the work by
// rater point so each member answers a disjoint slice.
func RaterPoint(r rating.RaterID) uint32 {
	key := idKey(int64(r))
	return uint32(Hash64(key[:]))
}
