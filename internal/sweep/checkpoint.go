package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"repro/internal/trace"
	"sync"
)

// Checkpoint is a JSON-backed store of completed task results keyed by
// caller-chosen stable strings. An interrupted sweep re-opened against the
// same file replays completed points from the store instead of recomputing
// them; values round-trip through encoding/json, whose float64 encoding is
// exact, so a resumed sweep reproduces an uninterrupted one byte for byte.
//
// The file is a single flat JSON object ({"key": value, ...}), rewritten
// atomically (temp file + rename) on every Save so a kill mid-sweep leaves
// either the previous or the new complete store, never a torn one. Safe
// for concurrent use by one process; not for concurrent writers across
// processes.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	done map[string]json.RawMessage
}

// OpenCheckpoint loads the store at path, creating an empty one if the
// file does not exist yet.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	if path == "" {
		return nil, fmt.Errorf("sweep: empty checkpoint path")
	}
	c := &Checkpoint{path: path, done: make(map[string]json.RawMessage)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, &c.done); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s corrupt: %w", path, err)
	}
	return c, nil
}

// Len returns how many completed results the store holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Lookup decodes the stored result for key into out, reporting whether the
// key was present.
func (c *Checkpoint) Lookup(key string, out any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.done[key]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("sweep: checkpoint entry %q corrupt: %w", key, err)
	}
	return true, nil
}

// Save stores a completed result under key and persists the whole store
// atomically.
func (c *Checkpoint) Save(key string, val any) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint entry %q: %w", key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = raw
	return c.persistLocked()
}

// persistLocked writes the store via a temp file in the same directory and
// renames it over the target, so readers never see a partial file.
func (c *Checkpoint) persistLocked() error {
	data, err := json.MarshalIndent(c.done, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(c.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(c.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: write checkpoint: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	// Sync before rename: without it a crash shortly after Save can leave
	// the renamed file with zero-length or partial content on some
	// filesystems, which OpenCheckpoint would then reject as corrupt.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		werr = errors.Join(werr, serr)
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write checkpoint: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write checkpoint: %w", err)
	}
	return nil
}

// MapCheckpointed is Map with checkpoint/resume: each input's result is
// looked up in cp under key(i, input) and, on a hit, returned without
// re-running the worker; misses run normally and are saved on success.
// Keys must be stable across runs (derive them from the input, never from
// timing or iteration order). A nil cp degrades to plain Map.
func MapCheckpointed[T, R any](ctx context.Context, inputs []T, key func(i int, in T) string, fn func(ctx context.Context, in T) (R, error), cp *Checkpoint, opts Options) ([]R, error) {
	if cp == nil {
		return Map(ctx, inputs, fn, opts)
	}
	if key == nil {
		return nil, fmt.Errorf("sweep: MapCheckpointed needs a key function")
	}
	tasks := make([]Task[R], len(inputs))
	for i, in := range inputs {
		i, in := i, in
		tasks[i] = func(ctx context.Context) (R, error) {
			k := key(i, in)
			var cached R
			if hit, err := cp.Lookup(k, &cached); err != nil {
				return cached, err
			} else if hit {
				opts.Trace.Append(trace.Event{Tick: i, Kind: trace.KindCheckpoint, Agent: -1, Victim: -1, Vector: "hit", Detail: k})
				return cached, nil
			}
			v, err := fn(ctx, in)
			if err != nil {
				return v, err
			}
			if err := cp.Save(k, v); err != nil {
				return v, err
			}
			opts.Trace.Append(trace.Event{Tick: i, Kind: trace.KindCheckpoint, Agent: -1, Victim: -1, Vector: "save", Detail: k})
			return v, nil
		}
	}
	results, err := Run(ctx, tasks, opts)
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, err
}
