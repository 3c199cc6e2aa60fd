package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type header struct {
	Format string `json:"format"`
}

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

const format = "test-journal-v1"

// open opens the journal at path keeping every replayed record, and
// returns what it replayed; replayed is nil for a fresh journal.
func open(t *testing.T, path string) (*Log[rec], []rec) {
	t.Helper()
	var replayed []rec
	l, err := Open(path, header{Format: format}, func(h header, recs []rec) ([]rec, error) {
		if h.Format != format {
			return nil, fmt.Errorf("not a test journal")
		}
		replayed = append([]rec{}, recs...)
		return recs, nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, replayed
}

// script is the workload the crash-point tests replay: single appends,
// batched appends and group-committed records, with payloads of
// varying length so that cuts land at many offsets within a line.
var script = [][]rec{
	{{1, "a"}},
	{{2, "bb"}, {3, "ccc"}},
	{{4, "dddd"}},
	{{5, "eeeee"}, {6, ""}, {7, "ggggggg"}},
	{{8, "h"}},
}

// runScript applies op i of the script: even ops append, odd ops buffer
// and flush.
func runScript(l *Log[rec], i int) error {
	if i%2 == 0 {
		return l.Append(script[i]...)
	}
	for _, r := range script[i] {
		if err := l.Buffer(r); err != nil {
			return err
		}
	}
	return l.Flush()
}

// TestCutAtEveryByte truncates a scripted journal at every byte offset,
// as a crash mid-write can, and requires Open to replay exactly the
// records whose lines lie wholly inside the cut, then to accept and
// keep a further append. An empty file opens fresh; a cut inside the
// header is refused.
func TestCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	l, _ := open(t, src)
	var all []rec
	for i := range script {
		if err := runScript(l, i); err != nil {
			t.Fatal(err)
		}
		all = append(all, script[i]...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the offset just past line k's newline; line 0 is the
	// header.
	var ends []int
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(all)+1 {
		t.Fatalf("scripted journal has %d lines, want %d:\n%s", len(ends), len(all)+1, data)
	}

	extra := rec{99, "after the cut"}
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%04d.jsonl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if cut > 0 && cut < ends[0] {
			if _, err := Open(path, header{}, func(header, []rec) ([]rec, error) { return nil, nil }); err == nil {
				t.Fatalf("cut %d inside the header: Open succeeded", cut)
			}
			continue
		}
		whole := 0
		for whole < len(all) && ends[whole+1] <= cut {
			whole++
		}
		l, got := open(t, path)
		if cut == 0 && got != nil {
			t.Fatalf("empty file replayed %v", got)
		}
		if want := all[:whole]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("cut %d: replayed %v, want %v", cut, got, want)
		}
		if err := l.Append(extra); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, got = open(t, path)
		l.Close()
		if want := append(append([]rec{}, all[:whole]...), extra); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: after append replayed %v, want %v", cut, got, want)
		}
	}
}

var errInjected = errors.New("injected I/O error")

// faultFile fails the failWrite-th Write after writing half its bytes,
// the way a short write on a full disk does, and the failSync-th Sync
// after the data reached the file, as a failed fsync does (counting
// from 1; 0 never fails).
type faultFile struct {
	file
	writes, syncs       int
	failWrite, failSync int
}

func (f *faultFile) Write(b []byte) (int, error) {
	f.writes++
	if f.writes == f.failWrite {
		n, _ := f.file.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.file.Write(b)
}

func (f *faultFile) Sync() error {
	f.syncs++
	if f.syncs == f.failSync {
		return errInjected
	}
	return f.file.Sync()
}

// TestFaultAtEveryWriteAndSync fails each write and each fsync of the
// script in turn. The failing commit and every later one must return
// the error, Close must report it, and a reopen must replay every
// acknowledged record and nothing committed after the failure.
func TestFaultAtEveryWriteAndSync(t *testing.T) {
	for _, kind := range []string{"write", "sync"} {
		for k := 1; k <= len(script); k++ {
			t.Run(fmt.Sprintf("%s%d", kind, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.jsonl")
				l, _ := open(t, path)
				ff := &faultFile{file: l.f}
				if kind == "write" {
					ff.failWrite = k
				} else {
					ff.failSync = k
				}
				l.f = ff
				var acked []rec
				failed := -1
				for i := range script {
					err := runScript(l, i)
					switch {
					case err == nil && failed < 0:
						acked = append(acked, script[i]...)
					case failed < 0:
						failed = i
						fallthrough
					default:
						if !errors.Is(err, errInjected) {
							t.Fatalf("op %d after the fault at op %d returned %v, want the injected error", i, failed, err)
						}
					}
				}
				if failed != k-1 {
					t.Fatalf("fault surfaced at op %d, want op %d", failed, k-1)
				}
				if err := l.Close(); !errors.Is(err, errInjected) {
					t.Fatalf("Close returned %v, want the injected error", err)
				}

				// The failed commit may have left some of its own lines
				// behind (all of them when only the fsync failed), but
				// nothing from a later commit.
				l, got := open(t, path)
				defer l.Close()
				if len(got) < len(acked) || (len(acked) > 0 && !reflect.DeepEqual(got[:len(acked)], acked)) {
					t.Fatalf("replayed %v, want the acknowledged %v first", got, acked)
				}
				rest, lost := got[len(acked):], script[failed]
				if kind == "sync" && !reflect.DeepEqual(rest, lost) {
					t.Fatalf("after a failed fsync replayed %v past the acknowledged records, want the written %v", rest, lost)
				}
				if len(rest) > len(lost) || (len(rest) > 0 && !reflect.DeepEqual(rest, lost[:len(rest)])) {
					t.Fatalf("replayed %v past the acknowledged records, want a prefix of the failed commit %v", rest, lost)
				}
			})
		}
	}
}

// TestStaleTempFileIgnored leaves behind the temp file of a rewrite
// killed before its rename: Open must neither read it nor keep it.
func TestStaleTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	stale := []byte("{\"format\":\"test-journal-v1\"}\n{\"n\":7,\"s\":\"stale\"}\n{\"n\":8")

	// Beside a live journal.
	l, _ := open(t, path)
	if err := l.Append(script[0]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(path+".tmp", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := open(t, path)
	l.Close()
	if !reflect.DeepEqual(got, script[0]) {
		t.Fatalf("replayed %v, want %v", got, script[0])
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the open: %v", err)
	}

	// In place of a journal that was never created.
	fresh := filepath.Join(dir, "fresh.jsonl")
	if err := os.WriteFile(fresh+".tmp", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got = open(t, fresh)
	l.Close()
	if got != nil {
		t.Fatalf("a journal that never existed replayed %v", got)
	}
}

// TestOpenRewritesWhatReplayKeeps pins compaction and refusal: the
// rewritten file holds the header and exactly the records replay keeps,
// and a refused file is left as it was.
func TestOpenRewritesWhatReplayKeeps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	l, _ := open(t, path)
	if err := l.Append(script[3]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err := Open(path, header{Format: format}, func(_ header, recs []rec) ([]rec, error) {
		return recs[1:2], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"format\":\"test-journal-v1\"}\n{\"n\":6,\"s\":\"\"}\n"
	if string(data) != want {
		t.Fatalf("rewritten journal:\n%s\nwant:\n%s", data, want)
	}

	refuse := errors.New("wrong owner")
	_, err = Open(path, header{Format: format}, func(header, []rec) ([]rec, error) { return nil, refuse })
	if !errors.Is(err, refuse) {
		t.Fatalf("Open returned %v, want the refusal", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatalf("refused journal was modified:\n%s", after)
	}
}

// TestOpenSyncsDirectoryAfterRename: the rewrite's rename is a directory
// entry, durable only once the directory is fsynced. Open must sync the
// journal's directory after the rename, on creation and on every
// reopen, and fail when that sync fails.
func TestOpenSyncsDirectoryAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	var synced []string
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(d string) error {
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("directory synced before the rename: temp file %v", err)
		}
		synced = append(synced, d)
		return orig(d)
	}
	l, _ := open(t, path)
	if err := l.Append(script[0]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, _ = open(t, path)
	l.Close()
	if want := []string{dir, dir}; !reflect.DeepEqual(synced, want) {
		t.Fatalf("synced %v, want %v", synced, want)
	}

	syncDir = func(string) error { return errInjected }
	if _, err := Open(path, header{Format: format}, func(_ header, recs []rec) ([]rec, error) {
		return recs, nil
	}); !errors.Is(err, errInjected) {
		t.Fatalf("Open returned %v, want the failed directory sync", err)
	}
}

// TestConcurrentCommits appends and group-commits from several
// goroutines at once; every record must be replayed exactly once.
func TestConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	l, _ := open(t, path)
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := rec{N: w*each + i}
				var err error
				if i%2 == 0 {
					err = l.Append(r)
				} else if err = l.Buffer(r); err == nil {
					err = l.Flush()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got := open(t, path)
	l.Close()
	seen := make(map[int]int)
	for _, r := range got {
		seen[r.N]++
	}
	for n := 0; n < writers*each; n++ {
		if seen[n] != 1 {
			t.Fatalf("record %d replayed %d times", n, seen[n])
		}
	}
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}
