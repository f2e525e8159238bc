package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/wire"
)

// netBackend drives a served instance over the wire protocol, one
// connection per worker. Key id n is "key-%016x"; a put of tag t
// stores the key, "#", t in decimal, then padding to netValueSize, so
// a value read back identifies both its key and the write it came from.
type netBackend struct{ addr string }

// netValueSize is the stored value payload: small enough to keep the
// run map-bound, large enough that replies are not header-only.
const netValueSize = 32

// badValue is what a value not written for its key decodes to; no put
// stores it (tags are op indices).
const badValue = ^uint64(0)

func (b netBackend) name() string { return "net " + b.addr }

func (b netBackend) session(int) (session, error) {
	c, err := wire.Dial(b.addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", b.addr, err)
	}
	return &netSession{c: c}, nil
}

func (netBackend) quiesce() int     { return -1 }
func (netBackend) report(io.Writer) {}

type netSession struct {
	c    *wire.Client
	kbuf []byte   // key render scratch
	vbuf []byte   // value render scratch
	keys [][]byte // MGET keys, one reused buffer per slot
	raw  [][]byte // MGET reply views
}

func (s *netSession) get(id uint64) (uint64, bool, error) {
	s.kbuf = appendKey(s.kbuf[:0], id)
	v, ok, err := s.c.Get(s.kbuf)
	if err != nil {
		return 0, false, fmt.Errorf("GET %s: %w", s.kbuf, err)
	}
	return decodeValue(s.kbuf, v), ok, nil
}

func (s *netSession) getBatch(ids, vals []uint64, found []bool) error {
	for len(s.keys) < len(ids) {
		s.keys = append(s.keys, nil)
		s.raw = append(s.raw, nil)
	}
	keys := s.keys[:len(ids)]
	for i, id := range ids {
		keys[i] = appendKey(keys[i][:0], id)
	}
	if _, err := s.c.MGet(keys, s.raw[:len(ids)], found); err != nil {
		return fmt.Errorf("MGET of %d keys: %w", len(ids), err)
	}
	for i := range ids {
		vals[i] = decodeValue(keys[i], s.raw[i])
	}
	return nil
}

func (s *netSession) put(id, val uint64) (bool, error) {
	s.kbuf = appendKey(s.kbuf[:0], id)
	s.vbuf = append(append(s.vbuf[:0], s.kbuf...), '#')
	s.vbuf = strconv.AppendUint(s.vbuf, val, 10)
	for len(s.vbuf) < netValueSize {
		s.vbuf = append(s.vbuf, '.')
	}
	if err := s.c.Set(s.kbuf, s.vbuf); err != nil {
		return false, fmt.Errorf("SET %s: %w", s.kbuf, err)
	}
	return true, nil
}

func (s *netSession) del(id uint64) (bool, error) {
	s.kbuf = appendKey(s.kbuf[:0], id)
	present, err := s.c.Delete(s.kbuf)
	if err != nil {
		return false, fmt.Errorf("DEL %s: %w", s.kbuf, err)
	}
	return present, nil
}

func (s *netSession) close() error { return s.c.Close() }

// appendKey renders key id as "key-%016x".
func appendKey(dst []byte, id uint64) []byte { return fmt.Appendf(dst, "key-%016x", id) }

// decodeValue recovers the put tag from a value stored under key.
func decodeValue(key, val []byte) uint64 {
	rest, mine := bytes.CutPrefix(val, key)
	rest, tagged := bytes.CutPrefix(rest, []byte{'#'})
	tag, err := strconv.ParseUint(string(bytes.TrimRight(rest, ".")), 10, 64)
	if !mine || !tagged || err != nil {
		return badValue
	}
	return tag
}
