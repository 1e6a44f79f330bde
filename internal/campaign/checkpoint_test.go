package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:  checkpointVersion,
		Campaign: "abcdef0123456789abcdef01",
		Seed:     7,
		Shards:   8,
		Total:    4096,
		Prefixes: []string{"10.0.0.0/20"},
		UnixMs:   1754650000000,
		Cursors: []ShardCursor{
			{Shard: 0, Cursor: 512, Done: false},
			{Shard: 1, Cursor: 2048, Done: true},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint()
	data, err := marshalCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Campaign != c.Campaign || got.Seed != c.Seed || got.Shards != c.Shards ||
		got.Total != c.Total || len(got.Cursors) != len(c.Cursors) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
	for i, sc := range got.Cursors {
		if sc != c.Cursors[i] {
			t.Fatalf("cursor %d: %+v vs %+v", i, sc, c.Cursors[i])
		}
	}
}

// TestCheckpointCorruptionDetected covers every damage mode a resume
// must refuse: truncation, bit flips in the payload, a stale
// checksum, version skew, and structural nonsense that still parses
// as JSON. Each must surface a typed, descriptive error — never a
// silently misread cursor.
func TestCheckpointCorruptionDetected(t *testing.T) {
	valid, err := marshalCheckpoint(testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 2} {
			if _, err := parseCheckpoint(valid[:n]); !errors.Is(err, errCorruptCheckpoint) {
				t.Errorf("truncation to %d bytes: err = %v, want errCorruptCheckpoint", n, err)
			}
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		// Flip the cursor digits: the checksum must catch value damage
		// that still parses as JSON.
		mangled := strings.Replace(string(valid), `"cursor": 512`, `"cursor": 513`, 1)
		if mangled == string(valid) {
			t.Fatal("test setup: cursor field not found")
		}
		if _, err := parseCheckpoint([]byte(mangled)); !errors.Is(err, errCorruptCheckpoint) {
			t.Errorf("bit flip: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		skewed := *testCheckpoint()
		skewed.Version = checkpointVersion + 1
		data, err := marshalCheckpoint(&skewed)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseCheckpoint(data)
		if !errors.Is(err, errCheckpointVersion) {
			t.Errorf("version skew: err = %v, want errCheckpointVersion", err)
		}
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version skew error not descriptive: %v", err)
		}
	})

	t.Run("bad-shard-structure", func(t *testing.T) {
		for _, mutate := range []func(c *Checkpoint){
			func(c *Checkpoint) { c.Shards = 0 },
			func(c *Checkpoint) { c.Cursors[0].Shard = 99 },
			func(c *Checkpoint) { c.Cursors[1].Shard = c.Cursors[0].Shard },
		} {
			c := testCheckpoint()
			mutate(c)
			data, err := marshalCheckpoint(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := parseCheckpoint(data); !errors.Is(err, errCorruptCheckpoint) {
				t.Errorf("structural damage: err = %v, want errCorruptCheckpoint", err)
			}
		}
	})

	t.Run("load-from-disk", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, valid[:len(valid)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if !errors.Is(err, errCorruptCheckpoint) {
			t.Errorf("LoadCheckpoint(truncated) = %v, want errCorruptCheckpoint", err)
		}
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name the offending file: %v", err)
		}
	})
}

func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	c := testCheckpoint()
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new cursors; the rename must fully replace.
	c.Cursors[0].Cursor = 4096
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursors[0].Cursor != 4096 {
		t.Fatalf("cursor after rewrite = %d, want 4096", got.Cursors[0].Cursor)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}

// FuzzCheckpointParse hardens the codec against arbitrary state
// files: parsing must never panic, and anything that parses cleanly
// must survive a marshal/parse round trip unchanged.
func FuzzCheckpointParse(f *testing.F) {
	valid, err := marshalCheckpoint(testCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	skewed := *testCheckpoint()
	skewed.Version = 99 // version-skewed
	if data, err := marshalCheckpoint(&skewed); err == nil {
		f.Add(data)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"cursors":[{"shard":-1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		re, err := marshalCheckpoint(c)
		if err != nil {
			t.Fatalf("re-marshal of accepted checkpoint failed: %v", err)
		}
		c2, err := parseCheckpoint(re)
		if err != nil {
			t.Fatalf("round trip of accepted checkpoint failed: %v", err)
		}
		a, _ := json.Marshal(c)
		b, _ := json.Marshal(c2)
		if string(a) != string(b) {
			t.Fatalf("round trip changed checkpoint: %s vs %s", a, b)
		}
	})
}
