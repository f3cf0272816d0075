// Package buffer implements the communication buffers used by the
// subcontract machinery.
//
// A Buffer is a typed marshal stream: stubs and subcontracts append
// primitive values to it when building a call or a marshalled object, and
// read them back on the receiving side. Besides the byte stream a Buffer
// carries an out-of-band sequence of door references (compare Mach port
// rights in messages): doors are capabilities managed by the kernel and
// cannot be flattened to bytes inside a machine, so WriteDoor records the
// reference out-of-band and splices a positional index into the byte
// stream. The network door servers (package netd) translate these
// references to an extended network form when a buffer crosses machines.
//
// The zero value of Buffer is an empty buffer ready for writing.
package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Door is an opaque door reference slot. The kernel and the network door
// servers define the concrete types stored here; the buffer only transports
// them positionally.
type Door any

// Errors returned by read operations.
var (
	// ErrUnderflow is returned when a read runs past the end of the
	// buffer's byte stream.
	ErrUnderflow = errors.New("buffer: read past end of buffer")
	// ErrBadString is returned when a marshalled string or byte sequence
	// has a corrupt length prefix.
	ErrBadString = errors.New("buffer: corrupt length prefix")
	// ErrBadDoor is returned when the byte stream does not carry a door
	// tag at the read position, or no out-of-band door slot remains.
	ErrBadDoor = errors.New("buffer: stream misaligned with door slots")
	// ErrDoorTaken is returned when a door slot has already been consumed
	// by an earlier ReadDoor.
	ErrDoorTaken = errors.New("buffer: door slot already consumed")
)

// doorTag is spliced into the byte stream at each WriteDoor so misaligned
// reads are detected. Door references themselves travel out-of-band and are
// consumed in FIFO order, which keeps streams spliceable: appending one
// buffer's bytes and doors to another preserves the pairing.
const doorTag = 0xD0

// Buffer is a marshal stream plus out-of-band door references.
// It is not safe for concurrent use.
type Buffer struct {
	data    []byte
	rpos    int
	doors   []Door
	dcursor int
	region  *Region // backing region, if built by FromRegion
}

// New returns an empty buffer with capacity hint n.
func New(n int) *Buffer {
	return &Buffer{data: make([]byte, 0, n)}
}

// pool recycles Buffers for the marshal hot paths (netd frame assembly,
// reply payloads). Capacity is retained across uses up to maxPooledCap so
// a steady-state small call allocates nothing.
var pool = sync.Pool{New: func() any { return newPooled() }}

// firstCap is the byte capacity a fresh pooled buffer is born with: room
// for a small call's arguments or reply.
const firstCap = 256

// pooledBuffer allocates a fresh pooled Buffer together with its first
// array, so a pool miss (the pool is emptied at garbage collections)
// costs a small call one allocation instead of two.
type pooledBuffer struct {
	Buffer
	first [firstCap]byte
}

func newPooled() *Buffer {
	p := new(pooledBuffer)
	p.data = p.first[:0]
	return &p.Buffer
}

// maxPooledCap bounds the byte capacity a pooled buffer may retain; a
// buffer grown past it (one giant frame) is dropped to the collector
// rather than pinning the memory in the pool.
const maxPooledCap = 256 << 10

// Get returns an empty buffer from the process-wide pool, grown to at
// least capacity hint n. Release it with Put when its contents are dead.
// A buffer whose pooled capacity is too small is re-armed from the
// storage pool (see Recycle) before falling back to a fresh allocation,
// so detached payload arrays circulate back into the marshal paths.
func Get(n int) *Buffer {
	b := pool.Get().(*Buffer)
	if cap(b.data) < n {
		if s := getStorage(n); s != nil {
			b.data = s
		} else {
			b.data = make([]byte, 0, n)
		}
	}
	return b
}

// storagePool recycles bare byte arrays: the payload storage behind
// detached buffers and bulk-region grants, which outlives the Buffer
// struct that grew it. Entries are *[]byte with length 0.
var storagePool sync.Pool

// getStorage returns a zero-length pooled array with capacity at least n,
// or nil when the pool cannot supply one. An array too small for the
// request is dropped to the collector rather than returned to the pool:
// the hot paths that miss here are about to grow past it anyway.
func getStorage(n int) []byte {
	v := storagePool.Get()
	if v == nil {
		return nil
	}
	s := *(v.(*[]byte))
	if cap(s) < n {
		return nil
	}
	return s
}

// Recycle returns a payload array to the storage pool. The caller must
// own p outright — no buffer, region or reader may alias it afterwards.
// Oversized arrays are dropped, mirroring Put.
func Recycle(p []byte) {
	if cap(p) == 0 || cap(p) > maxPooledCap {
		return
	}
	p = p[:0]
	storagePool.Put(&p)
}

// Put resets b and returns it to the pool. The caller must own b
// exclusively and must not use it afterwards; as with Reset, any
// unconsumed door references are dropped, so release them first. Put is
// safe on buffers not obtained from Get (and on nil, a no-op). A
// region-backed buffer releases its region whatever its size.
func Put(b *Buffer) {
	if b == nil {
		return
	}
	b.Reset()
	if cap(b.data) > maxPooledCap {
		return
	}
	pool.Put(b)
}

// FromParts reconstructs a buffer from a byte stream and a door slice, as
// produced by Bytes and Doors on the sending side. The slices are adopted,
// not copied.
func FromParts(data []byte, doors []Door) *Buffer {
	return &Buffer{data: data, doors: doors}
}

// shellPool recycles the transient Buffer structs handed out by Wrap. It
// is deliberately separate from Get's pool: those buffers retain marshal
// storage across uses, while a shell never owns its bytes — mixing the
// two would drain the armed buffers' storage guarantee.
var shellPool = sync.Pool{New: func() any { return &Buffer{} }}

// Wrap is the pooled counterpart of FromParts: it adopts data and doors
// without copying, for byte streams that already exist (netd's inbound
// frames). Release the struct with PutShell once it is dead; the adopted
// slices are never retained, so they may be aliased by payload buffers
// that outlive the shell.
func Wrap(data []byte, doors []Door) *Buffer {
	b := shellPool.Get().(*Buffer)
	b.data = data
	b.doors = doors
	return b
}

// PutShell returns a Wrap'd buffer to the shell pool (nil is a no-op),
// dropping — not retaining — every reference it carried. Unlike Put it
// never hands the wrapped bytes to the marshal pool, so it is safe when
// the byte stream is still live elsewhere.
func PutShell(b *Buffer) {
	if b == nil {
		return
	}
	if r := b.region; r != nil {
		b.region = nil
		r.Release()
	}
	*b = Buffer{}
	shellPool.Put(b)
}

// Bytes returns the full byte stream written so far.
func (b *Buffer) Bytes() []byte { return b.data }

// Doors returns the out-of-band door slice. Consumed slots are nil.
func (b *Buffer) Doors() []Door { return b.doors }

// Len reports the number of unread bytes.
func (b *Buffer) Len() int { return len(b.data) - b.rpos }

// Size reports the total number of bytes written.
func (b *Buffer) Size() int { return len(b.data) }

// DoorCount reports the number of door slots (consumed or not).
func (b *Buffer) DoorCount() int { return len(b.doors) }

// Reset empties the buffer for reuse, retaining allocated capacity.
// Any unconsumed door references are dropped; the caller is responsible for
// releasing them first (see kernel.ReleaseBufferDoors). A region-backed
// buffer releases its region and drops the aliased bytes.
func (b *Buffer) Reset() {
	if r := b.region; r != nil {
		b.region = nil
		b.data = nil // the bytes belong to the released region
		r.Release()
	}
	b.data = b.data[:0]
	b.rpos = 0
	clear(b.doors) // don't let a recycled buffer pin dropped references
	b.doors = b.doors[:0]
	b.dcursor = 0
}

// Rewind moves the read position back to the start of the stream. Door
// slots consumed before the rewind stay consumed (their references were
// adopted elsewhere); re-reading one yields ErrDoorTaken.
func (b *Buffer) Rewind() {
	b.rpos = 0
	b.dcursor = 0
}

// WriteUint32 appends v in little-endian order.
func (b *Buffer) WriteUint32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}

// WriteUint64 appends v in little-endian order.
func (b *Buffer) WriteUint64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}

// WriteInt32 appends v in little-endian order.
func (b *Buffer) WriteInt32(v int32) { b.WriteUint32(uint32(v)) }

// WriteInt64 appends v in little-endian order.
func (b *Buffer) WriteInt64(v int64) { b.WriteUint64(uint64(v)) }

// WriteUvarint appends v in unsigned varint encoding.
func (b *Buffer) WriteUvarint(v uint64) {
	b.data = binary.AppendUvarint(b.data, v)
}

// WriteVarint appends v in signed varint encoding.
func (b *Buffer) WriteVarint(v int64) {
	b.data = binary.AppendVarint(b.data, v)
}

// WriteBool appends a single 0/1 byte.
func (b *Buffer) WriteBool(v bool) {
	if v {
		b.data = append(b.data, 1)
	} else {
		b.data = append(b.data, 0)
	}
}

// WriteByte appends a single byte. It always returns nil, satisfying
// io.ByteWriter.
func (b *Buffer) WriteByte(v byte) error {
	b.data = append(b.data, v)
	return nil
}

// WriteFloat64 appends v as an IEEE-754 bit pattern.
func (b *Buffer) WriteFloat64(v float64) {
	b.WriteUint64(math.Float64bits(v))
}

// WriteFloat32 appends v as an IEEE-754 bit pattern.
func (b *Buffer) WriteFloat32(v float32) {
	b.WriteUint32(math.Float32bits(v))
}

// WriteString appends a length-prefixed string. It always succeeds; the
// return values satisfy io.StringWriter.
func (b *Buffer) WriteString(s string) (int, error) {
	b.WriteUvarint(uint64(len(s)))
	b.data = append(b.data, s...)
	return len(s), nil
}

// WriteBytes appends a length-prefixed byte sequence.
func (b *Buffer) WriteBytes(p []byte) {
	b.WriteUvarint(uint64(len(p)))
	b.data = append(b.data, p...)
}

// WriteRaw appends p with no length prefix.
func (b *Buffer) WriteRaw(p []byte) {
	b.data = append(b.data, p...)
}

// WriteDoor records d out-of-band and splices a door tag into the byte
// stream. Doors are consumed in the order they were written.
func (b *Buffer) WriteDoor(d Door) {
	b.WriteUvarint(doorTag)
	b.doors = append(b.doors, d)
}

// ReadUint32 consumes and returns a little-endian uint32.
func (b *Buffer) ReadUint32() (uint32, error) {
	if b.Len() < 4 {
		return 0, ErrUnderflow
	}
	v := binary.LittleEndian.Uint32(b.data[b.rpos:])
	b.rpos += 4
	return v, nil
}

// PeekUint32 returns the next uint32 without consuming it. Subcontract
// unmarshal code uses this to take a peek at the expected subcontract
// identifier before deciding whether to dispatch to another subcontract.
func (b *Buffer) PeekUint32() (uint32, error) {
	if b.Len() < 4 {
		return 0, ErrUnderflow
	}
	return binary.LittleEndian.Uint32(b.data[b.rpos:]), nil
}

// ReadUint64 consumes and returns a little-endian uint64.
func (b *Buffer) ReadUint64() (uint64, error) {
	if b.Len() < 8 {
		return 0, ErrUnderflow
	}
	v := binary.LittleEndian.Uint64(b.data[b.rpos:])
	b.rpos += 8
	return v, nil
}

// ReadInt32 consumes and returns a little-endian int32.
func (b *Buffer) ReadInt32() (int32, error) {
	v, err := b.ReadUint32()
	return int32(v), err
}

// ReadInt64 consumes and returns a little-endian int64.
func (b *Buffer) ReadInt64() (int64, error) {
	v, err := b.ReadUint64()
	return int64(v), err
}

// ReadUvarint consumes and returns an unsigned varint.
func (b *Buffer) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(b.data[b.rpos:])
	if n <= 0 {
		return 0, ErrUnderflow
	}
	b.rpos += n
	return v, nil
}

// ReadVarint consumes and returns a signed varint.
func (b *Buffer) ReadVarint() (int64, error) {
	v, n := binary.Varint(b.data[b.rpos:])
	if n <= 0 {
		return 0, ErrUnderflow
	}
	b.rpos += n
	return v, nil
}

// ReadBool consumes and returns a boolean.
func (b *Buffer) ReadBool() (bool, error) {
	if b.Len() < 1 {
		return false, ErrUnderflow
	}
	v := b.data[b.rpos] != 0
	b.rpos++
	return v, nil
}

// ReadByte consumes and returns one byte, satisfying io.ByteReader.
func (b *Buffer) ReadByte() (byte, error) {
	if b.Len() < 1 {
		return 0, ErrUnderflow
	}
	v := b.data[b.rpos]
	b.rpos++
	return v, nil
}

// ReadFloat64 consumes and returns an IEEE-754 double.
func (b *Buffer) ReadFloat64() (float64, error) {
	v, err := b.ReadUint64()
	return math.Float64frombits(v), err
}

// ReadFloat32 consumes and returns an IEEE-754 single.
func (b *Buffer) ReadFloat32() (float32, error) {
	v, err := b.ReadUint32()
	return math.Float32frombits(v), err
}

// ReadString consumes and returns a length-prefixed string.
func (b *Buffer) ReadString() (string, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(b.Len()) {
		return "", ErrBadString
	}
	s := string(b.data[b.rpos : b.rpos+int(n)])
	b.rpos += int(n)
	return s, nil
}

// ReadBytes consumes and returns a length-prefixed byte sequence. The
// returned slice aliases the buffer's storage.
func (b *Buffer) ReadBytes() ([]byte, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(b.Len()) {
		return nil, ErrBadString
	}
	p := b.data[b.rpos : b.rpos+int(n) : b.rpos+int(n)]
	b.rpos += int(n)
	return p, nil
}

// ReadRaw consumes exactly n bytes with no length prefix.
func (b *Buffer) ReadRaw(n int) ([]byte, error) {
	if n < 0 || n > b.Len() {
		return nil, ErrUnderflow
	}
	p := b.data[b.rpos : b.rpos+n : b.rpos+n]
	b.rpos += n
	return p, nil
}

// ReadDoor consumes a door tag from the byte stream and returns the next
// unconsumed door reference, clearing its slot so the reference cannot be
// adopted twice (re-reading after Rewind fails with ErrDoorTaken).
func (b *Buffer) ReadDoor() (Door, error) {
	tag, err := b.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if tag != doorTag {
		return nil, ErrBadDoor
	}
	if b.dcursor >= len(b.doors) {
		return nil, ErrBadDoor
	}
	d := b.doors[b.dcursor]
	if d == nil {
		b.dcursor++
		return nil, ErrDoorTaken
	}
	b.doors[b.dcursor] = nil
	b.dcursor++
	return d, nil
}

// Splice appends other's byte stream and door references to b. Because
// doors are consumed in FIFO order, reading the combined stream pairs each
// door tag with the right reference. other must not be used afterwards.
func (b *Buffer) Splice(other *Buffer) {
	b.data = append(b.data, other.data...)
	b.doors = append(b.doors, other.doors...)
}

// Detach removes and returns the buffer's byte storage, leaving the byte
// stream empty (door slots are untouched). The caller becomes the sole
// owner of the returned slice. It refuses (nil, false) on a region-backed
// buffer: those bytes belong to the region's owner — often a pool that
// will recycle them — and cannot change hands.
func (b *Buffer) Detach() ([]byte, bool) {
	if b.region != nil {
		return nil, false
	}
	data := b.data
	b.data = nil
	b.rpos = 0
	return data, true
}

// A Mark captures a buffer's write position, so a speculative section —
// bytes and door references — can be rolled back with Truncate.
type Mark struct {
	nbytes int
	ndoors int
}

// Mark returns the current end-of-stream position.
func (b *Buffer) Mark() Mark { return Mark{nbytes: len(b.data), ndoors: len(b.doors)} }

// Truncate discards everything written after m, returning the unconsumed
// door references removed so the caller can release them. Read positions
// past the mark are pulled back to it.
func (b *Buffer) Truncate(m Mark) []Door {
	var removed []Door
	if m.ndoors < len(b.doors) {
		for _, d := range b.doors[m.ndoors:] {
			if d != nil {
				removed = append(removed, d)
			}
		}
		clear(b.doors[m.ndoors:])
		b.doors = b.doors[:m.ndoors]
	}
	if m.nbytes < len(b.data) {
		b.data = b.data[:m.nbytes]
	}
	if b.rpos > m.nbytes {
		b.rpos = m.nbytes
	}
	if b.dcursor > m.ndoors {
		b.dcursor = m.ndoors
	}
	return removed
}

// AppendDoor adds d to the out-of-band door slots without touching the
// byte stream: the receiving half of Doors, for a stream whose door tags
// arrived already spliced in (netd reassembling a buffer from the wire).
func (b *Buffer) AppendDoor(d Door) {
	b.doors = append(b.doors, d)
}

// TakeDoors removes and returns all remaining (unconsumed) door references,
// clearing their slots. The network door servers use this when re-homing a
// buffer's doors onto the wire.
func (b *Buffer) TakeDoors() []Door {
	var out []Door
	for i, d := range b.doors {
		if d != nil {
			out = append(out, d)
			b.doors[i] = nil
		}
	}
	return out
}

// ReplaceDoors substitutes the door slice wholesale, preserving positional
// indices already spliced into the byte stream. It is used when importing a
// buffer whose doors were translated to proxy doors.
func (b *Buffer) ReplaceDoors(doors []Door) error {
	if len(doors) != len(b.doors) {
		return fmt.Errorf("buffer: door count mismatch: have %d slots, got %d doors", len(b.doors), len(doors))
	}
	b.doors = doors
	return nil
}

// String implements fmt.Stringer for debugging.
func (b *Buffer) String() string {
	return fmt.Sprintf("Buffer{%d bytes, rpos %d, %d doors}", len(b.data), b.rpos, len(b.doors))
}
