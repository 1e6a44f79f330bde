package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"
)

// checkpointVersion is the current on-disk state-file format, and names
// the walk its cursors count: a cursor is a count of positions, and a
// different walk maps them to other addresses. Version 2 walks
// [0, Total), every position an address; version 1 walked a power-of-4
// domain and skipped the positions past Total. Version bumps are
// deliberate compatibility breaks: a resume against a file written by a
// different version fails loudly instead of silently misreading cursors.
const checkpointVersion = 2

var (
	// errCorruptCheckpoint marks a state file that is truncated, not
	// JSON, fails its checksum, or is internally inconsistent. A
	// corrupt checkpoint must never be partially trusted: the caller
	// either falls back to the sink journal or restarts the campaign.
	errCorruptCheckpoint = errors.New("corrupt checkpoint")
	// errCheckpointVersion marks a structurally valid file written by
	// an incompatible engine version.
	errCheckpointVersion = errors.New("unsupported checkpoint version")
	// errCheckpointMismatch marks a valid checkpoint, or a journal, that
	// belongs to a different campaign (seed, prefix set, shard count or
	// walk differ).
	errCheckpointMismatch = errors.New("checkpoint belongs to a different campaign")
)

// ShardCursor is one shard's durable progress: Cursor units of its
// residue-class walk are complete (units [0, Cursor) were processed).
type ShardCursor struct {
	Shard  int    `json:"shard"`
	Cursor uint64 `json:"cursor"`
	Done   bool   `json:"done"`
}

// Checkpoint is the atomic-rename JSON state file. Campaign is the
// identity fingerprint over (seed, shards, normalized prefixes,
// total); Checksum covers every other field so a torn or bit-flipped
// write is detected rather than resumed from.
type Checkpoint struct {
	Version  int           `json:"version"`
	Campaign string        `json:"campaign"`
	Seed     uint64        `json:"seed"`
	Shards   int           `json:"shards"`
	Total    uint64        `json:"total"`
	Prefixes []string      `json:"prefixes"`
	UnixMs   int64         `json:"unix_ms"`
	Cursors  []ShardCursor `json:"cursors"`
	Checksum string        `json:"checksum"`
}

// identity fingerprints a campaign: two processes (or two runs of one
// process) agree on it iff they would walk the identical permutation
// with the identical shard partition. The walk is checkpointVersion's.
func identity(seed uint64, shards int, total uint64, prefixes []netip.Prefix) string {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], checkpointVersion)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(shards))
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], total)
	h.Write(b[:])
	for _, p := range prefixes {
		h.Write([]byte(p.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checksum hashes the checkpoint's canonical encoding with the
// Checksum field blanked.
func (c *Checkpoint) checksum() (string, error) {
	cc := *c
	cc.Checksum = ""
	data, err := json.Marshal(&cc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// marshalCheckpoint encodes c, stamping its checksum.
func marshalCheckpoint(c *Checkpoint) ([]byte, error) {
	sum, err := c.checksum()
	if err != nil {
		return nil, err
	}
	cc := *c
	cc.Checksum = sum
	data, err := json.MarshalIndent(&cc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// parseCheckpoint decodes and validates a state file. Every failure
// mode maps to a typed error: syntactic damage and checksum failures
// to errCorruptCheckpoint, format skew to errCheckpointVersion.
func parseCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptCheckpoint, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this engine writes version %d",
			errCheckpointVersion, c.Version, checkpointVersion)
	}
	want, err := c.checksum()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptCheckpoint, err)
	}
	if c.Checksum != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %.12s…, computed %.12s…)",
			errCorruptCheckpoint, c.Checksum, want)
	}
	if c.Shards <= 0 {
		return nil, fmt.Errorf("%w: non-positive shard count %d", errCorruptCheckpoint, c.Shards)
	}
	seen := make(map[int]bool, len(c.Cursors))
	for _, sc := range c.Cursors {
		if sc.Shard < 0 || sc.Shard >= c.Shards {
			return nil, fmt.Errorf("%w: cursor for shard %d outside [0,%d)",
				errCorruptCheckpoint, sc.Shard, c.Shards)
		}
		if seen[sc.Shard] {
			return nil, fmt.Errorf("%w: duplicate cursor for shard %d", errCorruptCheckpoint, sc.Shard)
		}
		seen[sc.Shard] = true
	}
	return &c, nil
}

// LoadCheckpoint reads and validates the state file at path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return c, nil
}

// WriteCheckpoint atomically replaces the state file at path:
// write-to-temp, sync, rename. A crash mid-write leaves either the
// previous complete file or a stray temp file — never a torn state
// file at the final name.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := marshalCheckpoint(c)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func nowUnixMs() int64 { return time.Now().UnixMilli() }
