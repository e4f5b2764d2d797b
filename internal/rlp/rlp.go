// Package rlp implements Recursive Length Prefix encoding, the
// serialization format Ethereum-style nodes use for Merkle Patricia Trie
// nodes and canonical structures. The reproduction needs it because the MPT
// (internal/mpt) hashes the RLP encoding of its nodes, exactly as the
// paper's prototype does through its Ethereum-derived state layer.
//
// The value model is deliberately minimal: an Item is either a byte string
// or a list of Items — which is the entire RLP data model. Struct mapping
// layers (as in go-ethereum) are out of scope; the MPT builds Items
// explicitly.
package rlp

import (
	"errors"
	"fmt"
)

// Kind discriminates the two RLP value kinds.
type Kind int

// The RLP value kinds.
const (
	KindString Kind = iota + 1
	KindList
)

// Item is one RLP value: either Str (when K == KindString) or List (when
// K == KindList).
type Item struct {
	K    Kind
	Str  []byte
	List []Item
}

// String builds a byte-string item.
func String(b []byte) Item { return Item{K: KindString, Str: b} }

// List builds a list item.
func List(items ...Item) Item { return Item{K: KindList, List: items} }

// Uint encodes an unsigned integer as a minimal big-endian byte string
// (leading zeros stripped; zero encodes as the empty string), per the RLP
// convention.
func Uint(v uint64) Item {
	if v == 0 {
		return String(nil)
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> shift)
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	return String(buf[:n])
}

// DecodeUint parses a minimal big-endian byte string produced by Uint.
func DecodeUint(b []byte) (uint64, error) {
	if len(b) > 8 {
		return 0, fmt.Errorf("rlp: integer of %d bytes overflows uint64", len(b))
	}
	if len(b) > 0 && b[0] == 0 {
		return 0, errors.New("rlp: integer has leading zero")
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// Encode serializes an item.
func Encode(it Item) []byte {
	return appendItem(nil, it)
}

func appendItem(dst []byte, it Item) []byte {
	switch it.K {
	case KindString:
		return AppendString(dst, it.Str)
	case KindList:
		var payload []byte
		for _, sub := range it.List {
			payload = appendItem(payload, sub)
		}
		dst = AppendListHeader(dst, len(payload))
		return append(dst, payload...)
	default:
		panic(fmt.Sprintf("rlp: encode item of kind %d", it.K))
	}
}

// AppendString appends the encoding of the byte string s to dst. Together
// with AppendListHeader it lets a hot caller (the MPT node encoder) write
// an encoding straight into a reused buffer without building an Item tree;
// the bytes are exactly what Encode(String(s)) produces.
func AppendString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	dst = appendLength(dst, 0x80, len(s))
	return append(dst, s...)
}

// AppendListHeader appends the header of a list whose already-encoded
// items total payloadLen bytes; the caller appends that payload next.
func AppendListHeader(dst []byte, payloadLen int) []byte {
	return appendLength(dst, 0xc0, payloadLen)
}

func appendLength(dst []byte, base byte, length int) []byte {
	if length < 56 {
		return append(dst, base+byte(length))
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(uint64(length) >> shift)
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	dst = append(dst, base+55+byte(n))
	return append(dst, buf[:n]...)
}

// Decoding errors.
var (
	ErrTrailingBytes = errors.New("rlp: trailing bytes after value")
	ErrTruncated     = errors.New("rlp: input truncated")
	ErrNonCanonical  = errors.New("rlp: non-canonical encoding")
)

// Decode parses exactly one item from b, rejecting trailing bytes.
func Decode(b []byte) (Item, error) {
	it, rest, err := decodeItem(b)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, ErrTrailingBytes
	}
	return it, nil
}

func decodeItem(b []byte) (Item, []byte, error) {
	if len(b) == 0 {
		return Item{}, nil, ErrTruncated
	}
	tag := b[0]
	switch {
	case tag < 0x80: // single byte
		return String(b[:1]), b[1:], nil
	case tag <= 0xb7: // short string
		n := int(tag - 0x80)
		if len(b) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		s := b[1 : 1+n]
		if n == 1 && s[0] < 0x80 {
			return Item{}, nil, ErrNonCanonical // should have been a single byte
		}
		return String(s), b[1+n:], nil
	case tag <= 0xbf: // long string
		return decodeLong(b, tag-0xb7, false)
	case tag <= 0xf7: // short list
		n := int(tag - 0xc0)
		if len(b) < 1+n {
			return Item{}, nil, ErrTruncated
		}
		items, err := decodeListPayload(b[1 : 1+n])
		if err != nil {
			return Item{}, nil, err
		}
		return Item{K: KindList, List: items}, b[1+n:], nil
	default: // long list
		return decodeLong(b, tag-0xf7, true)
	}
}

func decodeLong(b []byte, lenOfLen byte, isList bool) (Item, []byte, error) {
	n := int(lenOfLen)
	if len(b) < 1+n {
		return Item{}, nil, ErrTruncated
	}
	lenBytes := b[1 : 1+n]
	if lenBytes[0] == 0 {
		return Item{}, nil, ErrNonCanonical
	}
	var length uint64
	for _, c := range lenBytes {
		if length > (1<<56)-1 {
			return Item{}, nil, fmt.Errorf("rlp: length overflow")
		}
		length = length<<8 | uint64(c)
	}
	if length < 56 {
		return Item{}, nil, ErrNonCanonical // should have used short form
	}
	body := b[1+n:]
	if uint64(len(body)) < length {
		return Item{}, nil, ErrTruncated
	}
	payload, rest := body[:length], body[length:]
	if !isList {
		return String(payload), rest, nil
	}
	items, err := decodeListPayload(payload)
	if err != nil {
		return Item{}, nil, err
	}
	return Item{K: KindList, List: items}, rest, nil
}

func decodeListPayload(b []byte) ([]Item, error) {
	var items []Item
	for len(b) > 0 {
		it, rest, err := decodeItem(b)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		b = rest
	}
	return items, nil
}
