// Write-ahead log: the durability layer behind springfsd -wal. Every
// store mutation (create, remove, write) is applied in memory and appended
// to an on-disk log before the operation is acknowledged; a crashed server
// reopens the same directory and replays the log over the latest snapshot
// to recover exactly the acknowledged state.
//
// Commit is grouped: mutators enqueue their records and block while a
// single committer goroutine drains the queue, writes one batch with one
// write syscall and one fsync, and then wakes every waiter in the batch —
// the same coalescing shape as netd's connection writer, applied to fsync
// cost instead of syscall cost. The committer never waits for company: it
// commits the first queued record at once, and whatever queues during
// that fsync forms the next batch (at most MaxBatch records), so a lone
// mutator pays one fsync and concurrent ones share theirs. E19 sweeps the
// batch cap against throughput.
//
// On-disk format, per record:
//
//	[len u32] [crc u32 = CRC32-IEEE(payload)] [payload]
//	payload:  [op u8] [name string]            op = create | remove
//	          [op u8] [name string] [offset varint] [version u32] [data bytes]
//
// Replay validates the entire log before applying anything: a record that
// extends past the end of the file is a torn tail (the crash cut a batch
// write short) and is truncated away; a complete record whose CRC or
// structure is wrong is corruption and fails recovery with the store
// untouched. Records are idempotent — create tolerates an existing file,
// remove a missing one, and write carries its resulting version — so
// replaying over a snapshot that already contains some of the log's
// effects (the compaction window) converges to the same state.
package filesys

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// WAL record opcodes.
const (
	walOpCreate byte = 1
	walOpRemove byte = 2
	walOpWrite  byte = 3
)

// walHeaderSize is the per-record framing overhead: length + CRC.
const walHeaderSize = 8

// maxWALRecord bounds one record's payload; a length field beyond it is
// corruption, not an enormous record.
const maxWALRecord = 1 << 30

// Snapshot and log file names inside a WAL directory.
const (
	SnapshotFileName = "snapshot.sfs"
	LogFileName      = "wal.log"
)

// Errors returned by log recovery and by mutations racing shutdown.
var (
	// ErrCorruptLog is the typed error class for a log record that is
	// structurally complete but invalid — CRC mismatch, bad opcode,
	// undecodable payload. Recovery fails and the store is untouched.
	ErrCorruptLog = errors.New("filesys: corrupt write-ahead log")
	// ErrTornLogTail reports a final record cut short by a crash
	// mid-write. OpenWAL handles it by truncating the tail and recovering
	// the valid prefix; it is an error only from strict replay (tests).
	ErrTornLogTail = errors.New("filesys: torn write-ahead log tail")
	// ErrWALClosed fails mutations whose commit raced the log shutting
	// down (or being killed); the mutation was never acknowledged.
	ErrWALClosed = errors.New("filesys: write-ahead log closed")
)

// WAL gauges on the telemetry plane. appends counts records committed,
// syncs counts fsyncs — their ratio is the achieved group-commit batch
// size. log_bytes is the live log length (drops at compaction).
var (
	gWALAppends     = scstats.GaugeFor("wal.appends")
	gWALSyncs       = scstats.GaugeFor("wal.syncs")
	gWALBytes       = scstats.GaugeFor("wal.log_bytes")
	gWALCompactions = scstats.GaugeFor("wal.compactions")
	gWALReplayed    = scstats.GaugeFor("wal.records_replayed")
	gWALTornTails   = scstats.GaugeFor("wal.torn_tails_truncated")
)

// WALOptions tune the group-commit and compaction behavior. Zero fields
// take the documented defaults.
type WALOptions struct {
	// MaxBatch caps the records fsynced together. Default 256.
	MaxBatch int
	// CompactBytes is the log size that triggers a snapshot checkpoint
	// and log truncation. Default 4MiB; negative disables compaction.
	CompactBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.MaxBatch == 0 {
		o.MaxBatch = 256
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
	return o
}

// walRecord is one logged mutation.
type walRecord struct {
	op      byte
	name    string
	offset  int64
	version uint32
	data    []byte
}

// walPending is one mutation waiting for its group commit. The data slice
// is only referenced until done closes, so mutators can enqueue their
// argument bytes without copying.
type walPending struct {
	rec  walRecord
	done chan struct{}
	err  error
}

// wait blocks until the record's batch is on disk. A nil pending (store
// without a WAL) commits trivially.
func (p *walPending) wait() error {
	if p == nil {
		return nil
	}
	<-p.done
	return p.err
}

// WAL is an open write-ahead log bound to a store.
type WAL struct {
	dir   string
	store *Store
	opts  WALOptions

	// f and size belong to the committer goroutine after OpenWAL.
	f    *os.File
	size int64

	mu     sync.Mutex
	queue  []*walPending
	closed bool
	killed bool

	kick chan struct{}
	done chan struct{}

	// holdCommit, when set, runs at the start of every commitBatch, on the
	// committer goroutine: a test seam that parks the committer mid-batch
	// so records can be queued behind it deterministically.
	holdCommit func()
}

// OpenWAL opens (creating if needed) the durability directory for store:
// it loads the snapshot, replays the log over it — truncating a torn tail,
// rejecting corruption — attaches the log to the store so every further
// mutation is group-committed before acknowledgment, and starts the
// committer. The store should be empty; recovery replaces its contents.
func OpenWAL(dir string, store *Store, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filesys: wal dir: %w", err)
	}
	if err := store.LoadFile(filepath.Join(dir, SnapshotFileName)); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, LogFileName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("filesys: reading wal: %w", err)
	}
	recs, goodLen, perr := parseLog(data)
	if perr != nil && !errors.Is(perr, ErrTornLogTail) {
		return nil, perr
	}
	store.applyRecords(recs)
	gWALReplayed.Add(int64(len(recs)))

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filesys: opening wal: %w", err)
	}
	if goodLen < int64(len(data)) {
		if err := f.Truncate(goodLen); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("filesys: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("filesys: syncing truncated wal: %w", err)
		}
		gWALTornTails.Add(1)
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("filesys: seeking wal end: %w", err)
	}
	w := &WAL{
		dir:   dir,
		store: store,
		opts:  opts,
		f:     f,
		size:  goodLen,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	gWALBytes.Add(goodLen)
	store.AttachWAL(w)
	go w.committer()
	return w, nil
}

// Dir returns the durability directory the WAL lives in.
func (w *WAL) Dir() string { return w.dir }

// append enqueues one record for the next group commit. Callers may hold
// store or file locks; only w.mu is taken here.
func (w *WAL) append(rec walRecord) *walPending {
	p := &walPending{rec: rec, done: make(chan struct{})}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		p.err = ErrWALClosed
		close(p.done)
		return p
	}
	w.queue = append(w.queue, p)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return p
}

// Close flushes every queued record, compacts the log into a snapshot,
// and stops the committer. Mutations arriving after Close fail with
// ErrWALClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done

	// The committer has drained and exited; checkpoint so restart needs
	// no replay, then release the file.
	err := w.compact()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	gWALBytes.Add(-w.size)
	return err
}

// Kill simulates a SIGKILL for tests: the committer stops without
// flushing, queued-but-unsynced records are failed (their mutations were
// never acknowledged, and a restart will not recover them), and the file
// is abandoned as-is — mid-batch, if the kill raced a write.
func (w *WAL) Kill() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.killed = true
	dropped := w.queue
	w.queue = nil
	w.mu.Unlock()
	for _, p := range dropped {
		p.err = ErrWALClosed
		close(p.done)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
	_ = w.f.Close()
	gWALBytes.Add(-w.size)
}

// committer is the group-commit loop: wake on the first queued record,
// then drain the queue in batches of at most MaxBatch — one write and one
// fsync per batch — and wake the batch's waiters. Records that arrive
// while a batch is being written and fsynced wait for the next one, which
// is what groups them. Compaction runs between batches, on this
// goroutine, so it never races a log append.
func (w *WAL) committer() {
	defer close(w.done)
	for {
		<-w.kick
		for {
			w.mu.Lock()
			if w.killed {
				w.mu.Unlock()
				return
			}
			n := len(w.queue)
			if n == 0 {
				closed := w.closed
				w.mu.Unlock()
				if closed {
					return
				}
				break
			}
			if n > w.opts.MaxBatch {
				n = w.opts.MaxBatch
			}
			batch := w.queue[:n:n]
			w.queue = w.queue[n:]
			w.mu.Unlock()
			w.commitBatch(batch)
			if w.opts.CompactBytes > 0 && w.size > w.opts.CompactBytes {
				// A failed compaction loses nothing: the log is intact and
				// the threshold will trip again after the next batch.
				_ = w.compact()
			}
		}
	}
}

// commitBatch writes one batch of records as a single write syscall
// followed by a single fsync, then wakes the waiters.
func (w *WAL) commitBatch(batch []*walPending) {
	if w.holdCommit != nil {
		w.holdCommit()
	}
	out := buffer.New(256 * len(batch))
	scratch := buffer.New(256)
	for _, p := range batch {
		scratch.Reset()
		encodeRecord(scratch, &p.rec)
		payload := scratch.Bytes()
		out.WriteUint32(uint32(len(payload)))
		out.WriteUint32(crc32.ChecksumIEEE(payload))
		out.WriteRaw(payload)
	}
	var err error
	if _, werr := w.f.Write(out.Bytes()); werr != nil {
		err = fmt.Errorf("filesys: wal write: %w", werr)
	} else if serr := w.f.Sync(); serr != nil {
		err = fmt.Errorf("filesys: wal sync: %w", serr)
	}
	if err == nil {
		w.size += int64(out.Size())
		gWALBytes.Add(int64(out.Size()))
		gWALAppends.Add(int64(len(batch)))
		gWALSyncs.Add(1)
	}
	for _, p := range batch {
		p.err = err
		close(p.done)
	}
}

// compact checkpoints the store into the snapshot file (atomically: the
// previous snapshot survives any crash) and then truncates the log. Every
// record in the log at this moment is already reflected in the store —
// mutations apply in memory before they enqueue — so the snapshot
// subsumes the log; a crash between the rename and the truncate replays
// log records over a snapshot that already contains them, which the
// idempotent record semantics absorb.
func (w *WAL) compact() error {
	if err := writeFileAtomic(filepath.Join(w.dir, SnapshotFileName), w.store.Snapshot()); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("filesys: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("filesys: rewinding wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("filesys: syncing truncated wal: %w", err)
	}
	gWALBytes.Add(-w.size)
	w.size = 0
	gWALCompactions.Add(1)
	return nil
}

// encodeRecord writes one record payload (no framing) into buf.
func encodeRecord(buf *buffer.Buffer, rec *walRecord) {
	buf.WriteByte(rec.op)
	buf.WriteString(rec.name)
	if rec.op == walOpWrite {
		buf.WriteVarint(rec.offset)
		buf.WriteUint32(rec.version)
		buf.WriteBytes(rec.data)
	}
}

// decodeRecord parses one record payload. Every failure is corruption:
// the framing already established the payload is complete.
func decodeRecord(payload []byte) (walRecord, error) {
	buf := buffer.FromParts(payload, nil)
	op, err := buf.ReadByte()
	if err != nil {
		return walRecord{}, fmt.Errorf("%w: missing opcode", ErrCorruptLog)
	}
	name, err := buf.ReadString()
	if err != nil {
		return walRecord{}, fmt.Errorf("%w: record name: %v", ErrCorruptLog, err)
	}
	rec := walRecord{op: op, name: name}
	switch op {
	case walOpCreate, walOpRemove:
		if buf.Len() != 0 {
			return walRecord{}, fmt.Errorf("%w: %d trailing bytes in op %d", ErrCorruptLog, buf.Len(), op)
		}
	case walOpWrite:
		if rec.offset, err = buf.ReadVarint(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write offset: %v", ErrCorruptLog, err)
		}
		if rec.version, err = buf.ReadUint32(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write version: %v", ErrCorruptLog, err)
		}
		if rec.data, err = buf.ReadBytes(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write data: %v", ErrCorruptLog, err)
		}
		if buf.Len() != 0 {
			return walRecord{}, fmt.Errorf("%w: %d trailing bytes in write record", ErrCorruptLog, buf.Len())
		}
		if rec.offset < 0 {
			return walRecord{}, fmt.Errorf("%w: negative write offset %d", ErrCorruptLog, rec.offset)
		}
	default:
		return walRecord{}, fmt.Errorf("%w: unknown opcode %d", ErrCorruptLog, op)
	}
	return rec, nil
}

// parseLog validates an entire log byte stream, returning the decoded
// records and the byte length of the valid prefix. It applies nothing. A
// record cut off by the end of the stream yields ErrTornLogTail with the
// records before it; a complete-but-invalid record yields ErrCorruptLog.
func parseLog(data []byte) (recs []walRecord, goodLen int64, err error) {
	off := int64(0)
	total := int64(len(data))
	for off < total {
		if total-off < walHeaderSize {
			return recs, off, fmt.Errorf("%w: %d header bytes at offset %d", ErrTornLogTail, total-off, off)
		}
		hdr := buffer.FromParts(data[off:off+walHeaderSize], nil)
		plen32, _ := hdr.ReadUint32()
		crc, _ := hdr.ReadUint32()
		plen := int64(plen32)
		if plen > maxWALRecord {
			return recs, off, fmt.Errorf("%w: record length %d at offset %d", ErrCorruptLog, plen, off)
		}
		if off+walHeaderSize+plen > total {
			return recs, off, fmt.Errorf("%w: record needs %d bytes, %d remain at offset %d",
				ErrTornLogTail, plen, total-off-walHeaderSize, off)
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+plen]
		if sum := crc32.ChecksumIEEE(payload); sum != crc {
			return recs, off, fmt.Errorf("%w: CRC mismatch at offset %d (stored %#x, computed %#x)",
				ErrCorruptLog, off, crc, sum)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("%w at offset %d", derr, off)
		}
		recs = append(recs, rec)
		off += walHeaderSize + plen
	}
	return recs, off, nil
}

// ReplayLog validates data as a WAL byte stream and, only when every
// record is valid to the end, applies them all to the store. Any error —
// corruption or a torn tail — leaves the store untouched; OpenWAL is the
// forgiving path that recovers the valid prefix of a torn log.
func (s *Store) ReplayLog(data []byte) (int, error) {
	recs, _, err := parseLog(data)
	if err != nil {
		return 0, err
	}
	s.applyRecords(recs)
	return len(recs), nil
}

// applyRecords applies decoded log records in order. Application is
// idempotent: create of an existing file and remove of a missing one are
// no-ops, and writes set the version they originally produced.
func (s *Store) applyRecords(recs []walRecord) {
	for i := range recs {
		s.applyRecord(&recs[i])
	}
}

func (s *Store) applyRecord(rec *walRecord) {
	switch rec.op {
	case walOpCreate:
		s.mu.Lock()
		if _, ok := s.files[rec.name]; !ok {
			s.files[rec.name] = &fileState{name: rec.name, wal: s.wal}
		}
		s.mu.Unlock()
	case walOpRemove:
		s.mu.Lock()
		delete(s.files, rec.name)
		s.mu.Unlock()
	case walOpWrite:
		s.mu.Lock()
		st, ok := s.files[rec.name]
		s.mu.Unlock()
		if !ok {
			// A write whose file is gone: the log order put the remove
			// first (orphan write). The in-memory outcome was a write to
			// an unlinked file, so dropping it converges.
			return
		}
		st.mu.Lock()
		end := rec.offset + int64(len(rec.data))
		if end > int64(len(st.data)) {
			grown := make([]byte, end)
			copy(grown, st.data)
			st.data = grown
		}
		copy(st.data[rec.offset:end], rec.data)
		st.version = rec.version
		st.mu.Unlock()
	}
}
