// Package durable is the one place that knows how bytes reach disk so
// that a crash or power loss can neither tear them nor lose them once
// the call that wrote them has returned. Every call that changes the
// disk goes through fs; readers use os directly.
package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// fs is the OS; only export_test.go swaps it.
var fs fileSystem = osFS{}

type fileSystem interface {
	Mkdir(dir string) error
	CreateTemp(dir, pattern string) (file, error)
	OpenAppend(path string) (file, error)
	Rename(from, to string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	SyncDir(dir string) error
}

type file interface {
	io.Writer
	Name() string
	Sync() error
	Chmod(perm os.FileMode) error
	Close() error
}

type osFS struct{}

func (osFS) Mkdir(dir string) error                       { return os.Mkdir(dir, 0o755) }
func (osFS) CreateTemp(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }
func (osFS) OpenAppend(p string) (file, error)            { return os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0) }
func (osFS) Rename(from, to string) error                 { return os.Rename(from, to) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MkdirAll creates dir and any missing parents (0755), fsyncing each new
// directory's parent so its entry survives a power loss.
func MkdirAll(dir string) error {
	_, err := os.Stat(dir)
	parent := filepath.Dir(dir)
	if err == nil || parent == dir {
		return err
	}
	if err := MkdirAll(parent); err != nil {
		return err
	}
	if err := fs.Mkdir(dir); err != nil && !os.IsExist(err) {
		return err
	}
	return fs.SyncDir(parent)
}

// WriteFile replaces path with data (mode perm), creating its directory
// when missing, so that after a crash path holds its old bytes or all of
// data: it writes a temp file beside path, sets perm, fsyncs it, renames
// it over path and fsyncs the directory. A crash may leave the temp file
// ".<base>.tmp-<n>", which matches no loader's name or suffix.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := MkdirAll(dir); err != nil {
		return err
	}
	f, err := fs.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err = errors.Join(err, f.Chmod(perm), f.Sync(), f.Close()); err == nil {
		err = fs.Rename(f.Name(), path)
	}
	if err != nil {
		_ = fs.Remove(f.Name()) // a leftover is inert; removing it only tidies
		return err
	}
	return fs.SyncDir(dir)
}

// Log is an append-only file: a magic header, then frames of u32le body
// length, u32le CRC-32 (IEEE) of the body, body. Flush hands appended
// frames to the OS (a process crash keeps them), Sync makes flushed ones
// survive a power loss. Only Sync may run beside another method.
type Log struct {
	path, magic string
	f           file
	w           *bufio.Writer
}

// OpenLog opens the log at path for appending and returns its whole
// frames' bodies in order, truncating it at the first torn or corrupt
// frame (a crash mid-append). A missing file, or one shorter than magic
// (a torn first write), starts a fresh log; any other header is refused
// and the file left untouched.
func OpenLog(path, magic string) (*Log, [][]byte, error) {
	l := &Log{path: path, magic: magic}
	data, err := os.ReadFile(path)
	switch {
	case err != nil && !os.IsNotExist(err):
		return nil, nil, err
	case len(data) < len(magic):
		if err := l.Rewrite(nil); err != nil {
			return nil, nil, err
		}
		return l, nil, nil
	case string(data[:len(magic)]) != magic:
		return nil, nil, fmt.Errorf("durable: %s does not start with header %q; refusing to replay or overwrite it", path, magic)
	}
	var bodies [][]byte
	rest := data[len(magic):]
	for len(rest) >= 8 {
		n := int(binary.LittleEndian.Uint32(rest))
		if n > len(rest)-8 || crc32.ChecksumIEEE(rest[8:8+n]) != binary.LittleEndian.Uint32(rest[4:]) {
			break // torn or corrupt
		}
		bodies = append(bodies, bytes.Clone(rest[8:8+n])) // a kept body must not keep the file
		rest = rest[8+n:]
	}
	if len(rest) > 0 {
		err = fs.Truncate(path, int64(len(data)-len(rest)))
	}
	if err == nil {
		err = l.open()
	}
	if err != nil {
		return nil, nil, err
	}
	return l, bodies, nil
}

func (l *Log) open() error {
	f, err := fs.OpenAppend(l.path)
	if err != nil {
		return err
	}
	l.f, l.w = f, bufio.NewWriterSize(f, 64<<10)
	return nil
}

// frame appends body's frame to dst.
func frame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body)), body...)
}

// Append buffers body's frame.
func (l *Log) Append(body []byte) error {
	_, err := l.w.Write(frame(nil, body))
	return err
}

// Flush hands the buffered frames to the OS.
func (l *Log) Flush() error { return l.w.Flush() }

// Sync fsyncs what Flush has handed to the OS.
func (l *Log) Sync() error { return l.f.Sync() }

// Close flushes and closes the file without fsyncing it, which keeps
// what a process exit would keep; Sync first for a power loss.
func (l *Log) Close() error { return errors.Join(l.w.Flush(), l.f.Close()) }

// Rewrite replaces the log with the header and bodies through WriteFile,
// so a crash leaves either the old log or the new one, and reopens it
// for appending. Frames still buffered are dropped.
func (l *Log) Rewrite(bodies [][]byte) error {
	data := []byte(l.magic)
	for _, b := range bodies {
		data = frame(data, b)
	}
	if err := WriteFile(l.path, data, 0o644); err != nil {
		return err
	}
	if l.f != nil {
		_ = l.f.Close() // replaced: its close error cannot matter
	}
	return l.open()
}
