package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// DefaultSinkMaxBytes bounds a sink file before rotation when the caller
// passes 0.
const DefaultSinkMaxBytes = 64 << 20

// FileSink appends records of one type to a JSONL file, one per line,
// with size-bounded rotation: when an append would push a non-empty file
// past its limit, the file is renamed to <path>.1 (replacing any previous
// rotation) and a fresh file is started, so on-disk usage never exceeds
// ~2× the limit. The audit journal and the span collector export through
// it, so operators ship both with the same tooling.
type FileSink[T any] struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        sinkFile
	size     int64
	rotated  uint64
}

// sinkFile is what the sink needs of *os.File.
type sinkFile interface {
	io.WriteCloser
	Sync() error
}

// NewFileSink opens (or creates, appending) a JSONL sink at path.
// maxBytes ≤ 0 selects DefaultSinkMaxBytes.
func NewFileSink[T any](path string, maxBytes int64) (*FileSink[T], error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSinkMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink[T]{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends one record as a JSON line, rotating first if the line
// would push the file past the size bound. An empty file is never
// rotated: a record larger than the bound is written to it whole rather
// than renaming nothing over the previous <path>.1.
func (s *FileSink[T]) Write(rec T) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return os.ErrClosed
	}
	if s.size > 0 && s.size+int64(len(line)) > s.maxBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.f.Write(line)
	s.size += int64(n)
	return err
}

func (s *FileSink[T]) rotateLocked() error {
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return err
	}
	if err := os.Rename(s.path, s.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.size = 0
	s.rotated++
	return nil
}

// Rotations reports how many times the sink has rotated.
func (s *FileSink[T]) Rotations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotated
}

// Close fsyncs and closes the underlying file, so what was written
// survives the process. Writes after Close fail.
func (s *FileSink[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
