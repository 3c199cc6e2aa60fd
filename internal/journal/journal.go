// Package journal is the repo's one durable log: a JSONL file holding a
// header line followed by one JSON record per line. fleet's coordinator
// journal and simd's job journal are both built on it.
//
// The rules a crash or an I/O error can exercise all live here:
//
//   - Open replays complete lines up to the first torn or undecodable
//     one, which is what a kill mid-append leaves behind, and discards
//     everything from it on.
//   - Open then rewrites the file atomically (temp file, fsync, rename)
//     with the records the caller keeps, so creation, torn-tail repair
//     and compaction are one code path. A missing or empty file opens
//     fresh; a stale temp file from a rewrite killed before its rename
//     is overwritten, never read.
//   - Append makes its records durable with one write and one fsync
//     before it returns. Buffer and Flush group-commit records whose
//     loss a crash may cost.
//   - After a failed write or fsync the file's tail is unknown, so the
//     first error is sticky: every later Append, Flush and Close
//     returns it and nothing more is written.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// file is what a Log writes through; *os.File in production, a
// fault-injecting wrapper in tests.
type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Log is an open journal whose records have type R. Its methods are
// safe for concurrent use.
type Log[R any] struct {
	// mu is held across every write+fsync, so a Buffer call made while
	// a commit is in flight waits for it.
	mu  sync.Mutex
	f   file
	buf []byte // records buffered for the next Flush
	err error  // first write or fsync error; sticky
}

// Open opens the journal at path, creating it and its directory when
// missing. For a non-empty file, the header line decoded as H and the
// records replayed after it are passed to replay, which returns the
// records the rewritten file keeps, or an error to refuse the file
// (say, a header naming another owner); a missing or empty file skips
// replay. header is the header line the rewrite writes.
func Open[H, R any](path string, header H, replay func(H, []R) ([]R, error)) (*Log[R], error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var keep []R
	if len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var h H
		if nl < 0 || json.Unmarshal(data[:nl], &h) != nil {
			return nil, fmt.Errorf("journal: %s has no complete header line", path)
		}
		var recs []R
		for rest := data[nl+1:]; ; rest = rest[nl+1:] {
			// A line without its newline is a torn tail.
			if nl = bytes.IndexByte(rest, '\n'); nl < 0 {
				break
			}
			var r R
			if json.Unmarshal(rest[:nl], &r) != nil {
				break
			}
			recs = append(recs, r)
		}
		if keep, err = replay(h, recs); err != nil {
			return nil, err
		}
	}

	out, err := appendLine(nil, header)
	for i := 0; err == nil && i < len(keep); i++ {
		out, err = appendLine(out, &keep[i])
	}
	if err != nil {
		return nil, err
	}
	f, err := replace(path, out)
	if err != nil {
		return nil, err
	}
	return &Log[R]{f: f}, nil
}

// replace atomically replaces the file at path with data (temp file,
// fsync, rename) and opens it for appending.
func replace(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func appendLine(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(append(dst, b...), '\n'), err
}

// Append durably records recs with one write and one fsync, however
// many there are.
func (l *Log[R]) Append(recs ...R) error {
	var out []byte
	for i := range recs {
		var err error
		if out, err = appendLine(out, &recs[i]); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit(out)
}

// Buffer adds rec to the records the next Flush commits. It encodes rec
// before it takes the log's mutex.
func (l *Log[R]) Buffer(rec R) error {
	b, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.buf = append(append(l.buf, b...), '\n')
	l.mu.Unlock()
	return nil
}

// Flush commits every buffered record with one write and one fsync.
func (l *Log[R]) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := l.buf
	l.buf = nil
	if len(buf) == 0 {
		return l.err
	}
	return l.commit(buf)
}

// commit writes and syncs data; l.mu is held.
func (l *Log[R]) commit(data []byte) error {
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(data); err != nil {
		l.err = err
	} else if err := l.f.Sync(); err != nil {
		l.err = err
	}
	return l.err
}

// Close flushes buffered records and closes the file. It returns the
// log's sticky error when there is one.
func (l *Log[R]) Close() error {
	err := l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
