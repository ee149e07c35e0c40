package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dctopo/obs"
)

// storeVersion is baked into every content address. Bump it whenever a
// Result type's JSON shape changes incompatibly or a solver's answers
// move: old cache directories then read as misses instead of decoding
// garbage or serving stale numbers.
const storeVersion = 8

// StoreKey returns the full content address for (id, params): sha256
// over (store version, experiment ID, canonical params JSON). This is
// the identity the Store files entries under and the serve job queue
// dedups by — two requests with the same key are the same computation.
func StoreKey(id string, params []byte) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "v%d|%s|%s", storeVersion, id, params))
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed on-disk cache of experiment payloads.
// The address is sha256 over (store version, experiment ID, canonical
// params JSON), so a cache entry is valid exactly as long as the
// experiment it names would recompute the same thing; any change to the
// defaults or the format keys a different file. Entries are written
// atomically (temp file + rename), which is what makes an interrupted
// `report -heavy -cache DIR` resumable: completed steps re-read from
// disk, the interrupted one recomputes from scratch.
//
// A Store is safe for concurrent use by multiple goroutines and even
// multiple processes sharing the directory: reads are plain file reads,
// writes go through a private temp file and an atomic rename, and the
// hit/miss counters are atomics. Concurrent Puts of the same key are
// idempotent — payloads are deterministic per key, so whichever rename
// lands last installs identical bytes.
//
// A nil *Store is a valid no-op receiver: Get always misses without
// counting, Put discards, List returns nothing.
type Store struct {
	dir          string
	obs          *obs.Obs
	hits, misses atomic.Int64
}

// NewStore returns a store rooted at dir. The directory is created
// lazily on first Put. Hits and misses are counted on the handle's
// "expt.store.hits"/"expt.store.misses" counters as well as on the
// Store itself.
func NewStore(dir string, o *obs.Obs) *Store {
	return &Store{dir: dir, obs: o}
}

// Dir returns the root directory of the store.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// key returns the full content address for (id, params).
func (s *Store) key(id string, params []byte) string {
	return StoreKey(id, params)
}

// Path returns the file an entry for (id, params) lives at. The name
// leads with the experiment ID so a cache directory is browsable; the
// key prefix keeps distinct params distinct.
func (s *Store) Path(id string, params []byte) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%s.json", id, s.key(id, params)[:16]))
}

// Get returns the stored payload for (id, params), if any.
func (s *Store) Get(id string, params []byte) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	b, err := os.ReadFile(s.Path(id, params))
	if err != nil {
		s.misses.Add(1)
		s.obs.Counter("expt.store.misses").Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.obs.Counter("expt.store.hits").Add(1)
	return b, true
}

// Put persists a payload for (id, params), atomically replacing any
// existing entry.
func (s *Store) Put(id string, params, payload []byte) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".store-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.Path(id, params))
}

// Hits returns how many Gets found a stored payload.
func (s *Store) Hits() int64 {
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// Misses returns how many Gets found nothing.
func (s *Store) Misses() int64 {
	if s == nil {
		return 0
	}
	return s.misses.Load()
}

// Entry describes one stored payload as `topobench cache -ls` renders
// it: the file name (ID-keyprefix.json), the experiment ID parsed back
// out of it, the payload size, and the file's modification time (the
// completion time of the run that produced it).
type Entry struct {
	Name    string
	ID      string
	Bytes   int64
	ModTime time.Time
}

// List returns every entry in the store, newest first (ties broken by
// name so the order is deterministic). Stray temp files from a crashed
// writer and foreign files are skipped.
func (s *Store) List() ([]Entry, error) {
	if s == nil || s.dir == "" {
		return nil, nil
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		id := name
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			id = name[:i]
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted concurrently
		}
		out = append(out, Entry{Name: name, ID: id, Bytes: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.After(out[j].ModTime)
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// Size returns the total payload bytes currently stored.
func (s *Store) Size() (int64, error) {
	entries, err := s.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	return total, nil
}

// Remove deletes the named entry (a Name from List). Removing an entry
// that is gone already is not an error. Names with path separators are
// rejected so a caller cannot reach outside the store directory.
func (s *Store) Remove(name string) error {
	if s == nil || s.dir == "" {
		return nil
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return fmt.Errorf("store: invalid entry name %q", name)
	}
	err := os.Remove(filepath.Join(s.dir, name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Prune deletes oldest entries until the total size is at most
// maxBytes, returning the removed entries. The newest entries survive:
// they are the ones an interrupted run would resume from.
func (s *Store) Prune(maxBytes int64) ([]Entry, error) {
	entries, err := s.List()
	if err != nil {
		return nil, err
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	var removed []Entry
	for i := len(entries) - 1; i >= 0 && total > maxBytes; i-- {
		e := entries[i]
		if err := s.Remove(e.Name); err != nil {
			return removed, err
		}
		total -= e.Bytes
		removed = append(removed, e)
	}
	return removed, nil
}
