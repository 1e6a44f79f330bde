package listscan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func skipWith(i int, err error) string { return fmt.Sprintf("skipped %d: %v", i, err) }

// await fails the test when ch stays empty: every wait in this file is
// for an event the pool owes, so a timeout is a failure, not slowness.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestRun holds every callback open until the pool has admitted as
// many as it will, so the in-flight peak is observed, not raced.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		workers, n, wantPeak int
	}{
		{"fewer workers than targets", 3, 10, 3},
		{"more workers than targets", 16, 5, 5},
		{"one worker", 1, 4, 1},
		{"default workers", 0, DefaultWorkers + 6, DefaultWorkers},
		{"no targets", 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inFlight, peak atomic.Int32
			busy := make([]atomic.Bool, tc.wantPeak)
			started := make(chan struct{}, tc.n)
			release := make(chan struct{})
			done := make(chan []int, 1)
			go func() {
				done <- Run(context.Background(), tc.workers, tc.n, func(worker, i int) int {
					if worker < 0 || worker >= len(busy) {
						t.Errorf("target %d: worker index %d outside [0, %d)", i, worker, len(busy))
					} else if busy[worker].Swap(true) {
						t.Errorf("target %d: worker index %d is shared with a concurrent call", i, worker)
					} else {
						defer busy[worker].Store(false)
					}
					n := inFlight.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					started <- struct{}{}
					<-release
					inFlight.Add(-1)
					return i
				}, func(i int, err error) int {
					t.Errorf("target %d skipped: %v", i, err)
					return -1
				}, nil)
			}()
			for i := 0; i < tc.wantPeak; i++ {
				await(t, started, "a callback to start")
			}
			select {
			case <-started:
				t.Errorf("more than %d callbacks in flight", tc.wantPeak)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			got := await(t, done, "Run to return")
			if len(got) != tc.n {
				t.Fatalf("%d results for %d targets", len(got), tc.n)
			}
			for i, v := range got {
				if v != i {
					t.Errorf("slot %d holds %d", i, v)
				}
			}
			if p := int(peak.Load()); p != tc.wantPeak {
				t.Errorf("peak in flight %d, want %d", p, tc.wantPeak)
			}
		})
	}
}

// TestRunEmitsInOrder: while target 0 is open nothing may be emitted,
// however many later targets have finished; on its release every record
// leaves, in input order, before Run returns.
func TestRunEmitsInOrder(t *testing.T) {
	const n = 12
	var finished atomic.Int32
	othersDone := make(chan struct{})
	release := make(chan struct{})
	var emitted []int
	done := make(chan []int, 1)
	go func() {
		done <- Run(context.Background(), 4, n, func(_, i int) int {
			if i == 0 {
				<-release
			} else if finished.Add(1) == n-1 {
				close(othersDone)
			}
			return i
		}, nil, func(recs []int) { emitted = append(emitted, recs...) })
	}()
	await(t, othersDone, "targets 1..n-1 to finish")
	select {
	case <-done:
		t.Fatal("Run returned with target 0 still open")
	case <-time.After(50 * time.Millisecond):
	}
	// emit is never concurrent with itself, and target 0 gates its
	// first call: reading emitted here races with nothing.
	if len(emitted) != 0 {
		t.Errorf("emitted %v with target 0 still open", emitted)
	}
	close(release)
	got := await(t, done, "Run to return")
	if !slices.Equal(emitted, got) || len(got) != n || !slices.IsSorted(got) {
		t.Errorf("emitted %v, returned %v; want 0..%d in order from both", emitted, got, n-1)
	}
}

// TestRunEmitsDuringScan: no record waits for the end of the scan. The
// last target does not return until every earlier record has been
// emitted, so a pool that emits only when it is done never finishes.
func TestRunEmitsDuringScan(t *testing.T) {
	const n = 20
	earlier := make(chan struct{})
	count := 0
	done := make(chan []int, 1)
	go func() {
		done <- Run(context.Background(), 3, n, func(_, i int) int {
			if i == n-1 {
				<-earlier
			}
			return i
		}, nil, func(recs []int) {
			if count += len(recs); count == n-1 {
				close(earlier)
			}
		})
	}()
	await(t, done, "Run to return: records 0..n-2 were not emitted while target n-1 was in flight")
	if count != n {
		t.Errorf("%d records emitted, want %d", count, n)
	}
}

// TestRunCancelled: a target that has not started when ctx ends gets
// skip's record, not a call to fn.
func TestRunCancelled(t *testing.T) {
	const n, k = 50, 7
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	got := Run(ctx, 1, n, func(_, i int) string {
		if calls.Add(1) == k {
			cancel()
		}
		return "scanned"
	}, skipWith, nil)
	if c := calls.Load(); c != k {
		t.Errorf("fn called %d times, want %d: the pool went on after the cancel", c, k)
	}
	for i, r := range got {
		want := "scanned"
		if i >= k {
			want = skipWith(i, context.Canceled)
		}
		if r != want {
			t.Errorf("slot %d: %q, want %q", i, r, want)
		}
	}
}

func TestStream(t *testing.T) {
	type rec struct {
		N int    `json:"n"`
		S string `json:"s,omitempty"`
	}
	records := []rec{{1, "a"}, {2, ""}}
	write := func(path string) error {
		out, err := Create(path)
		if err != nil {
			return err
		}
		Emit[rec](out)(records)
		fmt.Fprintf(out, "%s\t%d\n", "text", 3)
		return out.Close()
	}

	path := filepath.Join(t.TempDir(), "out.ndjson")
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"n\":1,\"s\":\"a\"}\n{\"n\":2}\ntext\t3\n"; string(got) != want {
		t.Errorf("wrote %q, want %q", got, want)
	}

	// A stream that cannot be written in full is an error naming the
	// path, never a short file and a nil.
	if err := write(filepath.Join(t.TempDir(), "missing", "out.ndjson")); err == nil {
		t.Error("unopenable path: no error")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	err = write("/dev/full")
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Errorf("full device: err = %v, want one naming /dev/full", err)
	}
}

// TestStreamFlushesPerRun: what Emit has been handed is in the file
// when it returns, which is what a killed scan leaves behind.
func TestStreamFlushesPerRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	out, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	Emit[int](out)([]int{1, 2})
	if got, _ := os.ReadFile(path); string(got) != "1\n2\n" {
		t.Errorf("file holds %q before Close, want both records", got)
	}
}

func TestReadTargets(t *testing.T) {
	addr := netip.MustParseAddr
	for _, tc := range []struct {
		name, file string
		want       []Target
		wantErr    string // substring; empty means success
	}{
		{"addresses, comments, blanks, trailing space",
			"# hitlist\n\n192.0.2.10\n  192.0.2.11  \t\n#192.0.2.12\n",
			[]Target{{Addr: addr("192.0.2.10")}, {Addr: addr("192.0.2.11")}}, ""},
		{"sni and source fields",
			"192.0.2.10,www.example.org\n2001:db8::1 , v6.example.org , https-rr\n",
			[]Target{
				{Addr: addr("192.0.2.10"), SNI: "www.example.org"},
				{Addr: addr("2001:db8::1"), SNI: "v6.example.org", Source: "https-rr"},
			}, ""},
		{"mapped address is its IPv4 form", "::ffff:10.1.2.3\n", []Target{{Addr: addr("10.1.2.3")}}, ""},
		{"no final newline, CRLF", "192.0.2.1\r\n192.0.2.2", []Target{{Addr: addr("192.0.2.1")}, {Addr: addr("192.0.2.2")}}, ""},
		{"empty file", "", nil, ""},
		{"bad address", "192.0.2.1\nnot-an-address,sni\n", nil, `:2: "not-an-address,sni"`},
		{"port in address", "192.0.2.1:443\n", nil, `:1: "192.0.2.1:443"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "targets.txt")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTargets(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), path+tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, path+tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}

	missing := filepath.Join(t.TempDir(), "missing.txt")
	if _, err := ReadTargets(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	if _, err := ReadNames(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing names file: err = %v, want fs.ErrNotExist", err)
	}
}

func TestReadNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "names.txt")
	if err := os.WriteFile(path, []byte("# top list\nexample.org\n\n  www.example.net \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNames(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"example.org", "www.example.net"}; !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// FuzzReadTargets: a target file is operator input. Whatever it holds
// the reader must not panic, and what it returns must be usable as is:
// valid, unmapped addresses and trimmed fields.
func FuzzReadTargets(f *testing.F) {
	f.Add([]byte("192.0.2.10\n192.0.2.10,www.example.org\n2001:db8::1,v6.example.org,https-rr\n"))
	f.Add([]byte("# comment\n\n  ::ffff:10.1.2.3  \r\n"))
	f.Add([]byte("fe80::1%eth0,a,b,c,d\n,\n"))
	f.Add([]byte("not-an-address\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		targets, err := parseList(bytes.NewReader(data), "fuzz", parseTarget)
		if err != nil && !strings.HasPrefix(err.Error(), "fuzz:") {
			t.Errorf("error does not name its source: %v", err)
		}
		for _, tg := range targets {
			if !tg.Addr.IsValid() || tg.Addr.Is4In6() {
				t.Errorf("returned address %v: invalid or still IPv4-mapped", tg.Addr)
			}
			if tg.SNI != strings.TrimSpace(tg.SNI) || tg.Source != strings.TrimSpace(tg.Source) {
				t.Errorf("untrimmed fields in %+v", tg)
			}
		}
	})
}
