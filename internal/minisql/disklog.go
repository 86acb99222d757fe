package minisql

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"osprey/internal/codec"
	"osprey/internal/wait"
)

// The entry codec: a committed entry has one encoded form, the record
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// with the payload a compact binary encoding of the entry (varint index,
// statement count, then per statement the SQL text and typed argument
// values, each appendValue's cell, the form checkpoints store cells in; a
// set-based write, Tx.RunRows, is one statement of n parameters
// carrying k·n arguments, which ApplyEntry replays row by row). It is
// produced once, at commit, by the node's Log (Log.Append); the disk log, a
// leader's window and the replication stream all carry those bytes, and no
// other package knows the layout. The CRC is what turns a torn write — the
// tail of the file the process was killed while appending — or a frame
// damaged in transit into a detectable condition instead of silent
// corruption.
//
// There is one decoder, decodeRecord, in two forms. DecodeRecord returns a
// fresh entry. Engine.DecodeRecordInto decodes into the caller's entry,
// reusing its Stmts and each statement's Args capacity, carves text from the
// caller's codec.Text and resolves SQL text the engine has prepared to the
// pinned handle's own string: a follower replaying its leader's stream
// allocates only its arena's chunks for text arguments, plus the SQL of
// statements it never prepared (DDL, ad-hoc text).
//
// Bounds: the codec package's rule, with MaxRecordSize the record bound. On
// top of it, Stmts and Args grow as statements and arguments decode, never
// past what the record claims, so a record whose counts its bytes cannot
// back fails having allocated no more than it decoded.

const (
	recordHeaderSize = 8
	// MaxRecordSize bounds a single record's payload so a corrupt length
	// prefix cannot ask for a multi-gigabyte allocation.
	MaxRecordSize = 256 << 20
)

// errCorrupt marks an undecodable record, a log entry's or a checkpoint's:
// CRC mismatch, truncated payload, or malformed encoding. During log recovery
// it means "valid log ends here".
var errCorrupt = errors.New("minisql: corrupt record")

// Record is one committed entry in its encoded form, with the index the
// bytes encode so holders can order, ship and append it without decoding.
type Record struct {
	Index uint64
	Data  []byte
}

// EncodeRecord appends e's record to buf and returns the extended buffer.
func EncodeRecord(buf []byte, e LogEntry) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recordHeaderSize)...)
	buf = codec.AppendUvarint(buf, e.Index)
	buf = codec.AppendUvarint(buf, uint64(len(e.Stmts)))
	for _, s := range e.Stmts {
		buf = codec.AppendString(buf, s.SQL)
		buf = codec.AppendUvarint(buf, uint64(len(s.Args)))
		for _, v := range s.Args {
			buf = appendValue(buf, v)
		}
	}
	return sealRecord(buf, start)
}

// sealRecord fills in the header of the record that starts at buf[start]:
// the payload is everything after the header's reserved bytes.
func sealRecord(buf []byte, start int) []byte {
	payload := buf[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendValue appends v as one cell: its Kind byte, then a zigzag varint for
// an integer or a uvarint length and the bytes for text; NULL is the Kind
// byte alone. It and readValue are the one cell codec, so a value has the
// same bytes in a log record (an argument) and in a checkpoint (a stored
// cell).
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = codec.AppendVarint(b, v.Int)
	case KindText:
		b = codec.AppendString(b, v.Text)
	}
	return b
}

// DecodeRecord decodes the record at the front of b, whether read back from
// a segment or received from a leader. It returns the entry and the record's
// framed size (more records may follow in b), or errCorrupt when the length,
// the CRC or the payload's structure does not check out.
func DecodeRecord(b []byte) (e LogEntry, size int, err error) {
	if size, err = decodeRecord(&e, b, nil, nil); err != nil {
		return LogEntry{}, 0, err
	}
	return e, size, nil
}

// DecodeRecordInto is DecodeRecord decoding into ent, whose Stmts and Args
// capacity it reuses, carving its text from text: a follower keeps one entry
// and one arena for its whole stream. SQL text this engine has prepared
// resolves to the pinned handle's string, with no copy. On error ent holds a
// partial decode, to be overwritten, not used.
func (e *Engine) DecodeRecordInto(ent *LogEntry, text *codec.Text, b []byte) (size int, err error) {
	return decodeRecord(ent, b, e.plans, text)
}

// decodeRecord is the one decoder: the record at the front of b into e,
// reusing e's capacity, with SQL text resolved through pins' pinned handles
// when pins is not nil and other text carved from text (a Reader's own
// arena when nil).
func decodeRecord(e *LogEntry, b []byte, pins *planCache, text *codec.Text) (int, error) {
	payload, size, err := readRecord(b)
	if err != nil {
		return 0, err
	}
	if err := decodeEntry(e, payload, pins, text); err != nil {
		return 0, err
	}
	return size, nil
}

// readValue reads one appendValue cell. An unknown Kind is corrupt.
func readValue(r *codec.Reader) Value {
	v := Value{Kind: Kind(r.Byte())}
	switch v.Kind {
	case KindNull:
	case KindInt:
		v.Int = r.Varint()
	case KindText:
		v.Text = r.String()
	default:
		r.Fail()
	}
	return v
}

// decodeEntry decodes payload into e (see decodeRecord).
func decodeEntry(e *LogEntry, payload []byte, pins *planCache, text *codec.Text) error {
	r := text.Reader(payload, errCorrupt)
	e.Index = r.Uvarint()
	nStmts := r.Count(2) // SQL text length, argument count
	e.Stmts = e.Stmts[:0]
	for i := 0; i < nStmts && r.Err() == nil; i++ {
		e.Stmts = growOne(e.Stmts, nStmts)
		s := &e.Stmts[i]
		s.prep = nil
		if pins != nil {
			s.SQL = pins.text(r.Bytes())
		} else {
			s.SQL = r.String()
		}
		nArgs := r.Count(1) // a cell's Kind byte
		s.Args = s.Args[:0]
		for j := 0; j < nArgs && r.Err() == nil; j++ {
			v := readValue(&r)
			s.Args = growOne(s.Args, nArgs)
			s.Args[j] = v
		}
	}
	if r.Len() != 0 {
		r.Fail()
	}
	return r.Err()
}

// growOne extends s by one element, reusing its capacity. Past it, capacity
// doubles but never beyond claimed, the count the record states: allocation
// follows what decodes, and a count the bytes cannot back sizes nothing. The
// new element may hold a previous decode's value, which the caller overwrites.
func growOne[T any](s []T, claimed int) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	g := make([]T, len(s)+1, min(max(2*cap(s), 4), claimed))
	copy(g, s)
	return g
}

// readRecord decodes the record starting at b. It returns the payload and
// the total framed size, or errCorrupt when the prefix does not hold one
// intact record.
func readRecord(b []byte) (payload []byte, size int, err error) {
	if len(b) < recordHeaderSize {
		return nil, 0, errCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if n > MaxRecordSize || uint64(len(b)) < recordHeaderSize+uint64(n) {
		return nil, 0, errCorrupt
	}
	payload = b[recordHeaderSize : recordHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, errCorrupt
	}
	return payload, recordHeaderSize + int(n), nil
}

// nextRecord is readRecord for a stream, reading the payload into *buf. A
// stream ending before a record is io.EOF, inside one errCorrupt.
func nextRecord(r io.Reader, buf *[]byte) (payload []byte, size int, err error) {
	var h [recordHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errCorrupt
		}
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(h[:])
	if n > MaxRecordSize {
		return nil, 0, errCorrupt
	}
	if payload, err = codec.ReadBody(r, buf, int(n), errCorrupt); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(h[4:]) {
		return nil, 0, errCorrupt
	}
	return payload, recordHeaderSize + int(n), nil
}

// walkRecords hands fn each record in data (framed bytes, and the payload
// inside them) in order and returns how many bytes it consumed, stopping
// with an error at the first record that fails its frame check or fn.
func walkRecords(data []byte, fn func(rec, payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		payload, size, err := readRecord(data[off:])
		if err == nil {
			err = fn(data[off:off+size], payload)
		}
		if err != nil {
			return off, err
		}
		off += size
	}
	return off, nil
}

// segment is one on-disk log file. The filename encodes the index of its
// first record (seg-%020d.wal), so the set of segments orders itself and a
// scan knows each file's range without reading it.
type segment struct {
	path  string
	first uint64 // index of the first entry in the file
	last  uint64 // index of the last entry (first-1 while empty)
	bytes int64
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%020d.wal", first))
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// DefaultSegmentBytes is the roll threshold for log segments: a segment
// that grows past it is closed and a new one started, so truncation at a
// checkpoint reclaims disk file-by-file.
const DefaultSegmentBytes = 8 << 20

// DiskLog is a segmented on-disk write-ahead log of LogEntries:
// <dir>/seg-<firstIndex>.wal files of records (above), rolled at segBytes.
// Appends go to the active (newest) segment through a buffered writer. In
// fsync mode a background syncer (syncLoop) makes them durable and
// WaitDurable blocks an acknowledgement until its entry is: every write API
// call of a durable node, and a follower's ack, waits there. Without fsync
// every append is still flushed to the OS before it returns, so the log
// survives process death (kill -9); fsync additionally survives
// machine/power loss.
//
// Recovery (scan, on open) truncates the log at the first torn or corrupt
// record and drops any later segments: everything before that point is
// intact by CRC, everything after could not have been acknowledged durable —
// a crashed append never poisons recovery. TestDiskLogParentSegmentPinned
// holds a segment written before the one-codec change to the format.
type DiskLog struct {
	dir      string
	segBytes int64
	fsync    bool
	fs       FS // filesystem seam (fs.go); OSFS in production

	mu       sync.Mutex
	segs     []segment // all segments, oldest first; last one is active
	f        File      // active segment file
	w        *bufio.Writer
	dirty    []File // rolled-over files with writes not yet fsynced
	base     uint64 // index before the first retained entry
	last     uint64 // index of the newest appended entry
	anchored bool   // last is a contiguity anchor (false: fresh log, any start index)
	synced   uint64 // durable high-water mark
	err      error  // sticky I/O error; fails all later operations
	closed   bool
	encBuf   []byte
	syncing  bool // an fsync batch is in flight outside the lock

	syncReq   chan struct{}
	syncIdle  wait.Signal // woken when an fsync batch finishes
	durable   wait.Signal // woken when synced advances, the log fails or it closes
	closeCh   chan struct{}
	done      chan struct{}
	truncated uint64 // entries dropped by TruncateTo (for metrics)
	fsyncs    uint64
	fsyncObs  func(time.Duration)
}

// OpenDiskLog opens (or creates) the segmented log in dir, recovering its
// intact prefix. segBytes <= 0 selects DefaultSegmentBytes. The last
// argument is ignored: it was a coalescing window before group commit came
// from the fsync in flight, and stays in the signature for existing callers.
func OpenDiskLog(dir string, segBytes int64, fsync bool, _ time.Duration) (*DiskLog, error) {
	return OpenDiskLogFS(nil, dir, segBytes, fsync)
}

// OpenDiskLogFS is OpenDiskLog over an explicit filesystem. A nil fsys
// selects OSFS; anything else (chaos fault injection) sees every open,
// append, fsync, rename, and remove the log performs.
func OpenDiskLogFS(fsys FS, dir string, segBytes int64, fsync bool) (*DiskLog, error) {
	if fsys == nil {
		fsys = OSFS
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskLog{
		dir: dir, segBytes: segBytes, fsync: fsync, fs: fsys,
		syncReq: make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	go d.syncLoop()
	return d, nil
}

// scan rebuilds the segment list from dir, validating every record and
// truncating at the first invalid one.
func (d *DiskLog) scan() error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return err
	}
	var segs []segment
	for _, de := range names {
		if first, ok := parseSegmentName(de.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(d.dir, de.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	valid := true // records so far extend an intact, contiguous prefix
	for i := range segs {
		s := &segs[i]
		s.last = s.first - 1
		if !valid || (i > 0 && s.first != segs[i-1].last+1) {
			// Past a corruption point, or not contiguous with the previous
			// segment: this file's entries are unreachable by replay.
			valid = false
			continue
		}
		data, err := d.fs.ReadFile(s.path)
		if err != nil {
			return err
		}
		var e LogEntry
		var text codec.Text
		off, werr := walkRecords(data, func(_, payload []byte) error {
			if err := decodeEntry(&e, payload, nil, &text); err != nil || e.Index != s.last+1 {
				return errCorrupt
			}
			s.last = e.Index
			return nil
		})
		if werr != nil {
			// Torn or corrupt tail: keep the intact prefix, drop the rest.
			valid = false
			if err := d.fs.Truncate(s.path, int64(off)); err != nil {
				return err
			}
		}
		s.bytes = int64(off)
	}
	// Drop unreachable segments (after a corruption/gap) and empty files
	// from a crash between create and first append.
	kept := segs[:0]
	for _, s := range segs {
		if s.last >= s.first {
			kept = append(kept, s)
		} else {
			d.fs.Remove(s.path)
		}
	}
	d.segs = append([]segment(nil), kept...)
	if len(d.segs) > 0 {
		d.base = d.segs[0].first - 1
		d.last = d.segs[len(d.segs)-1].last
		d.anchored = true
	}
	d.synced = d.last
	if len(d.segs) > 0 {
		f, err := d.fs.OpenFile(d.segs[len(d.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		d.f = f
		d.w = bufio.NewWriter(f)
	}
	return nil
}

// Append encodes entries and appends their records, for a caller that
// numbers entries itself; a node's Log encodes in Log.Append and writes
// through AppendRecords.
func (d *DiskLog) Append(entries ...LogEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		d.encBuf = EncodeRecord(d.encBuf[:0], e)
		if err := d.appendLocked(Record{Index: e.Index, Data: d.encBuf}); err != nil {
			return err
		}
	}
	return nil
}

// AppendRecords writes records to the log verbatim, in order. Their indexes
// must be contiguous with the log's newest entry; an empty log accepts any
// starting index (it continues from a checkpoint). The write reaches the OS
// before it returns; call WaitDurable for the fsync guarantee.
func (d *DiskLog) AppendRecords(recs ...Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(recs...)
}

func (d *DiskLog) appendLocked(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	if d.closed {
		return errors.New("minisql: disk log closed")
	}
	for _, r := range recs {
		if d.anchored && r.Index != d.last+1 {
			return fmt.Errorf("minisql: disk log gap: have %d, appending %d", d.last, r.Index)
		}
		if d.f == nil || d.segs[len(d.segs)-1].bytes >= d.segBytes {
			if err := d.rollLocked(r.Index); err != nil {
				d.err = err
				return err
			}
		}
		s := &d.segs[len(d.segs)-1]
		if _, err := d.w.Write(r.Data); err != nil {
			d.err = err
			return err
		}
		s.bytes += int64(len(r.Data))
		s.last = r.Index
		d.last = r.Index
		d.anchored = true
	}
	if !d.fsync {
		if err := d.w.Flush(); err != nil {
			d.err = err
			return err
		}
		d.advanceSyncedLocked(d.last)
		return nil
	}
	select {
	case d.syncReq <- struct{}{}:
	default:
	}
	return nil
}

// rollLocked closes out the active segment (keeping its file handle dirty
// until the next fsync) and starts a new one whose first entry will be
// next.
func (d *DiskLog) rollLocked(next uint64) error {
	if d.f != nil {
		if err := d.w.Flush(); err != nil {
			return err
		}
		if d.fsync {
			d.dirty = append(d.dirty, d.f)
		} else {
			d.f.Close()
		}
	}
	f, err := d.fs.OpenFile(segmentPath(d.dir, next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	d.f = f
	d.w = bufio.NewWriter(f)
	d.segs = append(d.segs, segment{path: f.Name(), first: next, last: next - 1})
	if len(d.segs) == 1 {
		d.base = next - 1
	}
	syncDir(d.dir)
	return nil
}

// syncLoop is the group-commit worker: each request flushes and fsyncs
// everything appended so far, so N writers blocked in WaitDurable share one
// fsync, and the next fsync starts as soon as one is requested. The loop
// never waits on purpose: the entries that arrive while an fsync is in
// flight are the next group, so batches grow by themselves on a slow disk
// and shrink on a fast one, and a lone writer pays exactly one fsync.
func (d *DiskLog) syncLoop() {
	defer close(d.done)
	for {
		select {
		case <-d.closeCh:
			return
		case <-d.syncReq:
		}
		d.mu.Lock()
		target := d.last
		// closed: Close took the handles while this request was pending.
		if d.closed || d.err != nil || (target <= d.synced && len(d.dirty) == 0) {
			d.mu.Unlock()
			continue
		}
		if err := d.w.Flush(); err != nil {
			d.failLocked(err)
			d.mu.Unlock()
			continue
		}
		files := append([]File(nil), d.dirty...)
		cur := d.f
		// Mark the batch in flight: Reset and Close wait for it instead of
		// closing these handles underneath the Syncs below — a mid-flight
		// Sync on a closed handle would record a spurious sticky error
		// right after a snapshot install cleared the log.
		d.syncing = true
		d.mu.Unlock()

		t0 := time.Now()
		var serr error
		for _, f := range files {
			if err := f.Sync(); err != nil {
				serr = err
			}
			f.Close()
		}
		if serr == nil && cur != nil {
			serr = cur.Sync()
		}
		el := time.Since(t0)

		d.mu.Lock()
		// Drop only the handles this batch synced: segments rolled during
		// the fsync appended new dirty handles that still need theirs.
		d.dirty = append(d.dirty[:0], d.dirty[len(files):]...)
		d.fsyncs++
		if obs := d.fsyncObs; obs != nil {
			d.mu.Unlock()
			obs(el)
			d.mu.Lock()
		}
		if serr != nil {
			d.failLocked(serr)
		} else {
			d.advanceSyncedLocked(target)
		}
		d.syncing = false
		d.syncIdle.Wake()
		d.mu.Unlock()
	}
}

func (d *DiskLog) advanceSyncedLocked(idx uint64) {
	if idx > d.synced {
		d.synced = idx
		d.durable.Wake()
	}
}

// failLocked records a sticky I/O error and wakes all durability waiters:
// a log that cannot persist must fail writes loudly, not ack them.
func (d *DiskLog) failLocked(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("minisql: disk log: %w", err)
	}
	d.durable.Wake()
}

// Synced returns the newest durable index: fsynced in fsync mode, flushed to
// the OS otherwise.
func (d *DiskLog) Synced() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.synced
}

// WaitDurable blocks until the entry at idx is durable: fsynced in fsync
// mode, flushed to the OS otherwise (where it returns immediately).
func (d *DiskLog) WaitDurable(idx uint64, timeout time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := wait.For(&d.mu, &d.durable, timeout, func() (bool, error) {
		switch {
		case d.err != nil:
			return false, d.err
		case d.synced >= idx:
			return true, nil
		case d.closed:
			return false, errors.New("minisql: disk log closed")
		}
		select { // not durable yet: ask the sync loop for a batch
		case d.syncReq <- struct{}{}:
		default:
		}
		return false, nil
	})
	if err == wait.ErrTimeout {
		err = fmt.Errorf("minisql: entry %d not durable within %v", idx, timeout)
	}
	return err
}

// Records returns the records with index > after, read back from the
// segment files. ok is false when after precedes the truncated base — the
// caller needs a checkpoint instead.
func (d *DiskLog) Records(after uint64) (out []Record, ok bool, err error) {
	d.mu.Lock()
	if d.err != nil {
		err = d.err
		d.mu.Unlock()
		return nil, false, err
	}
	if after < d.base {
		d.mu.Unlock()
		return nil, false, nil
	}
	if after >= d.last {
		d.mu.Unlock()
		return nil, true, nil
	}
	if d.w != nil {
		if ferr := d.w.Flush(); ferr != nil {
			d.err = ferr
			d.mu.Unlock()
			return nil, false, ferr
		}
	}
	segs := append([]segment(nil), d.segs...)
	d.mu.Unlock()

	for _, s := range segs {
		if s.last <= after {
			continue
		}
		data, rerr := d.fs.ReadFile(s.path)
		if rerr != nil {
			return nil, false, rerr
		}
		// Bound the scan to the byte count recorded under the lock: the
		// active segment may be growing concurrently, and reading past the
		// flushed prefix can see a torn in-progress record that is not
		// corruption.
		if int64(len(data)) > s.bytes {
			data = data[:s.bytes]
		}
		off, werr := walkRecords(data, func(rec, payload []byte) error {
			r := codec.NewReader(payload, errCorrupt)
			if idx := r.Uvarint(); idx > after {
				out = append(out, Record{Index: idx, Data: rec})
			}
			return r.Err()
		})
		if werr != nil {
			return nil, false, fmt.Errorf("%w: segment %s offset %d", werr, s.path, off)
		}
	}
	return out, true, nil
}

// reaches reports whether Records can serve the records after after.
func (d *DiskLog) reaches(after uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err == nil && after >= d.base
}

// Entries is Records decoded: a copy of all entries with index > after.
func (d *DiskLog) Entries(after uint64) ([]LogEntry, bool, error) {
	recs, ok, err := d.Records(after)
	if err != nil || !ok {
		return nil, ok, err
	}
	out := make([]LogEntry, len(recs))
	var text codec.Text // one arena for the whole read-back
	for i, r := range recs {
		if _, err = decodeRecord(&out[i], r.Data, nil, &text); err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// TruncateTo deletes whole segments whose entries all have index <= upTo,
// bounding disk use once a checkpoint covers them. The active segment is
// never deleted. Returns the number of entries dropped.
func (d *DiskLog) TruncateTo(upTo uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var dropped uint64
	for len(d.segs) > 1 && d.segs[0].last <= upTo {
		s := d.segs[0]
		d.fs.Remove(s.path)
		dropped += s.last - s.first + 1
		d.segs = d.segs[1:]
	}
	if len(d.segs) > 0 {
		d.base = d.segs[0].first - 1
	}
	d.truncated += dropped
	if dropped > 0 {
		syncDir(d.dir)
	}
	return dropped
}

// Reset discards the entire log and restarts it after base — used when a
// snapshot install replaces local state wholesale, making the old entries
// meaningless.
func (d *DiskLog) Reset(base uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The in-flight batch's verdict (including a failure) belongs to the
	// history being discarded, so it must land before d.err is cleared.
	d.waitIdleLocked()
	if d.f != nil {
		d.w.Flush()
		d.f.Close()
		d.f, d.w = nil, nil
	}
	for _, f := range d.dirty {
		f.Close()
	}
	d.dirty = d.dirty[:0]
	for _, s := range d.segs {
		d.fs.Remove(s.path)
	}
	d.segs = nil
	d.base, d.last, d.synced = base, base, base
	d.anchored = true
	d.err = nil
	syncDir(d.dir)
	return nil
}

// waitIdleLocked waits out an in-flight fsync batch, which holds copies of
// the handles Reset and Close are about to close. Caller holds d.mu.
func (d *DiskLog) waitIdleLocked() {
	wait.For(&d.mu, &d.syncIdle, math.MaxInt64, func() (bool, error) { return !d.syncing, nil })
}

// DiskLogStats is the log's metrics snapshot.
type DiskLogStats struct {
	Segments  int
	DiskBytes int64
	First     uint64 // index of the oldest retained entry (0 when empty)
	Last      uint64
	Synced    uint64
	Truncated uint64 // entries dropped by checkpoint truncation
	Fsyncs    uint64
}

// Stats snapshots the log's size and position counters.
func (d *DiskLog) Stats() DiskLogStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DiskLogStats{
		Segments: len(d.segs), Last: d.last, Synced: d.synced,
		Truncated: d.truncated, Fsyncs: d.fsyncs,
	}
	for _, s := range d.segs {
		st.DiskBytes += s.bytes
		if st.First == 0 && s.last >= s.first {
			st.First = s.first
		}
	}
	return st
}

// SetFsyncObserver registers fn to receive the duration of every fsync
// batch (the obs bridge; minisql itself stays dependency-free).
func (d *DiskLog) SetFsyncObserver(fn func(time.Duration)) {
	d.mu.Lock()
	d.fsyncObs = fn
	d.mu.Unlock()
}

// LastIndex returns the index of the newest appended entry.
func (d *DiskLog) LastIndex() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Close flushes, fsyncs (in fsync mode), and closes the log.
func (d *DiskLog) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.closeCh)
	d.waitIdleLocked()
	var err error
	if d.w != nil {
		err = d.w.Flush()
	}
	files := append([]File(nil), d.dirty...)
	d.dirty = nil
	f := d.f
	d.f, d.w = nil, nil
	d.durable.Wake()
	d.mu.Unlock()
	<-d.done
	for _, df := range files {
		if d.fsync {
			df.Sync()
		}
		df.Close()
	}
	if f != nil {
		if d.fsync {
			if serr := f.Sync(); err == nil {
				err = serr
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// syncDir fsyncs a directory so file creates/renames/removes inside it are
// durable. Best effort: not all filesystems support directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
