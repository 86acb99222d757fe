package main

import (
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"osprey/internal/minisql"
)

// The counters below sit at the seams the program already offers for fault
// injection (service.DialOptions.Dialer, service.WithListener,
// replica.Config.Listen, core.OpenOptions.FS). They only count: every call is
// passed through unchanged, so the program runs exactly as shipped.

// ioCount is the traffic through one seam.
type ioCount struct {
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	writes     atomic.Int64 // Write calls: one per flushed frame or batch
}

type ioSnapshot struct{ readBytes, writeBytes, writes int64 }

func (c *ioCount) snapshot() ioSnapshot {
	return ioSnapshot{c.readBytes.Load(), c.writeBytes.Load(), c.writes.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.readBytes - b.readBytes, a.writeBytes - b.writeBytes, a.writes - b.writes}
}

func (a ioSnapshot) add(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.readBytes + b.readBytes, a.writeBytes + b.writeBytes, a.writes + b.writes}
}

type countedConn struct {
	net.Conn
	c *ioCount
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.readBytes.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writeBytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// dial is a service.DialFunc / replica.DialFunc that counts the connection's
// traffic from the dialing side.
func (c *ioCount) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return countedConn{conn, c}, nil
}

// listen is a service.ListenFunc / replica.ListenFunc whose accepted
// connections count their traffic from the accepting side.
func (c *ioCount) listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return countedListener{ln, c}, nil
}

type countedListener struct {
	net.Listener
	c *ioCount
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{conn, l.c}, nil
}

// countingFS wraps the real filesystem under a durable node and counts what
// reaches the device boundary: bytes and write calls split by WAL segment
// versus everything else (checkpoints, meta), and fsync calls with their
// wall time.
type countingFS struct {
	minisql.FS
	walBytes    atomic.Int64
	otherBytes  atomic.Int64
	writes      atomic.Int64
	syncs       atomic.Int64
	syncNanos   atomic.Int64
	checkpoints atomic.Int64 // checkpoint files renamed into place
}

type fsSnapshot struct{ walBytes, otherBytes, writes, syncs, syncNanos, checkpoints int64 }

func newCountingFS() *countingFS { return &countingFS{FS: minisql.OSFS} }

func (f *countingFS) snapshot() fsSnapshot {
	return fsSnapshot{f.walBytes.Load(), f.otherBytes.Load(), f.writes.Load(),
		f.syncs.Load(), f.syncNanos.Load(), f.checkpoints.Load()}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{a.walBytes - b.walBytes, a.otherBytes - b.otherBytes, a.writes - b.writes,
		a.syncs - b.syncs, a.syncNanos - b.syncNanos, a.checkpoints - b.checkpoints}
}

func (a fsSnapshot) add(b fsSnapshot) fsSnapshot {
	return fsSnapshot{a.walBytes + b.walBytes, a.otherBytes + b.otherBytes, a.writes + b.writes,
		a.syncs + b.syncs, a.syncNanos + b.syncNanos, a.checkpoints + b.checkpoints}
}

func (f *countingFS) wrap(file minisql.File, err error) (minisql.File, error) {
	if err != nil {
		return nil, err
	}
	return &countedFile{File: file, fs: f, wal: strings.HasSuffix(file.Name(), ".wal")}, nil
}

func (f *countingFS) Open(name string) (minisql.File, error) { return f.wrap(f.FS.Open(name)) }

func (f *countingFS) OpenFile(name string, flag int, perm os.FileMode) (minisql.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *countingFS) CreateTemp(dir, pattern string) (minisql.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.otherBytes.Add(int64(len(data)))
	f.writes.Add(1)
	return f.FS.WriteFile(name, data, perm)
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".snap") {
		f.checkpoints.Add(1)
	}
	return f.FS.Rename(oldpath, newpath)
}

type countedFile struct {
	minisql.File
	fs  *countingFS
	wal bool
}

func (c *countedFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	if c.wal {
		c.fs.walBytes.Add(int64(n))
	} else {
		c.fs.otherBytes.Add(int64(n))
	}
	c.fs.writes.Add(1)
	return n, err
}

func (c *countedFile) Sync() error {
	t0 := time.Now()
	err := c.File.Sync()
	c.fs.syncNanos.Add(int64(time.Since(t0)))
	c.fs.syncs.Add(1)
	return err
}
