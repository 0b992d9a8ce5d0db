package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/wal"
)

// A journal directory is laid out as
//
//	MANIFEST                     {"version":1,"epoch":3,"shards":4}
//	epoch-0003/shard-0000/...    one WAL per shard for the live epoch
//	epoch-0003/shard-0001/...
//
// The manifest is the single atomic commit point: whatever epoch it
// names is authoritative, and everything else in the directory is
// garbage from a superseded epoch or an interrupted migration. That
// is what makes shard-count changes crash-safe — the new epoch's logs
// are fully written and snapshotted BEFORE the manifest flips, so a
// crash at any instant leaves either the complete old epoch or the
// complete new one.
const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	epochPrefix     = "epoch-"
	shardPrefix     = "shard-"
)

// Manifest is the committed MANIFEST: the live epoch and the shard
// count its logs were written with.
type Manifest struct {
	Version int `json:"version"`
	Epoch   int `json:"epoch"`
	Shards  int `json:"shards"`
}

func epochDirName(epoch int) string       { return fmt.Sprintf("%s%04d", epochPrefix, epoch) }
func manifestPath(root string) string     { return filepath.Join(root, manifestName) }
func epochPath(root string, e int) string { return filepath.Join(root, epochDirName(e)) }

// ShardDir is shard i's log directory in the given epoch of root.
func ShardDir(root string, epoch, i int) string {
	return filepath.Join(epochPath(root, epoch), fmt.Sprintf("%s%04d", shardPrefix, i))
}

// ReadManifest reports ok=false when root holds no MANIFEST; any
// other failure (corruption, wrong version) is an error — guessing at
// the layout of a durability directory is how data gets lost.
func ReadManifest(root string) (Manifest, bool, error) {
	data, err := os.ReadFile(manifestPath(root))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("manifest %s corrupt: %w", manifestPath(root), err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, false, fmt.Errorf("manifest %s: unsupported version %d", manifestPath(root), m.Version)
	}
	if m.Epoch < 1 || m.Shards < 1 {
		return Manifest{}, false, fmt.Errorf("manifest %s: invalid epoch=%d shards=%d", manifestPath(root), m.Epoch, m.Shards)
	}
	return m, true, nil
}

// writeManifest commits atomically and durably: temp file, fsync,
// rename, directory fsync — the same discipline as snapshot writes.
func writeManifest(root string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := manifestPath(root) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(root)); err != nil {
		return err
	}
	return faultinject.OS().SyncDir(root)
}

// Epochs lists the epoch numbers present in root, ascending.
func Epochs(root string) ([]int, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var epochs []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), epochPrefix) {
			continue
		}
		if n, err := strconv.Atoi(e.Name()[len(epochPrefix):]); err == nil && n >= 1 {
			epochs = append(epochs, n)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// countShardDirs counts contiguous shard-NNNN subdirectories of an
// epoch directory, which is the shard count that epoch was run with.
func countShardDirs(root string, epoch int) (int, error) {
	n := 0
	for {
		if _, err := os.Stat(ShardDir(root, epoch, n)); err != nil {
			if os.IsNotExist(err) {
				return n, nil
			}
			return 0, err
		}
		n++
	}
}

// hasLegacyWAL reports whether root holds a pre-sharding single log:
// wal segments or snapshots directly in the root directory.
func hasLegacyWAL(root string) (bool, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), "wal-") || strings.HasPrefix(e.Name(), "snap-") {
			return true, nil
		}
	}
	return false, nil
}

// openLogSet opens one WAL per shard under the given epoch, in
// parallel (each open scans and fsyncs its own directory). On partial
// failure every opened log is closed before returning.
func openLogSet(cfg Config, epoch, n int) ([]*wal.Log, []shard.RecoveredShard, error) {
	logs := make([]*wal.Log, n) // filled here: Map returns no results on error
	recs, err := parallel.Map(n, 0, func(i int) (shard.RecoveredShard, error) {
		opts := cfg.WAL
		opts.Dir = ShardDir(cfg.Dir, epoch, i)
		l, rec, err := wal.Open(opts)
		if err != nil {
			return shard.RecoveredShard{}, fmt.Errorf("shard %d: %w", i, err)
		}
		logs[i] = l
		return shard.RecoveredShard{Snapshot: rec.Snapshot, Records: rec.Records}, nil
	})
	if err != nil {
		closeLogSet(logs)
		return nil, nil, err
	}
	return logs, recs, nil
}

func closeLogSet(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// rebaseLogs writes every shard's current state into its log as the
// new baseline, all at the same barrier height, one goroutine per log.
// It returns the lowest-indexed shard's error. A pass that fails
// partway leaves some logs rebased and others not, which recovery
// accepts: barriers a log's snapshot already covers replay without
// cross-log alignment.
func rebaseLogs(logs []*wal.Log, engine *shard.Engine, barrier uint64) error {
	_, err := parallel.Map(len(logs), len(logs), func(i int) (struct{}, error) {
		if err := logs[i].Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(engine, i, barrier, w)
		}); err != nil {
			return struct{}{}, fmt.Errorf("shard %d: %w", i, err)
		}
		return struct{}{}, nil
	})
	return err
}

// Open recovers engine from the journal directory cfg.Dir and returns
// the journal in front of it, with what recovery replayed. The
// directory is opened for engine.Shards() logs; three shapes of prior
// content are handled:
//
//   - none: create epoch 1 and commit it;
//   - same shard count: open the live epoch and replay it;
//   - different shard count: recover the old epoch (ratings remap by
//     hash), write a fully-snapshotted new epoch, then commit the
//     manifest flip and retire the old directory.
//
// A pre-sharding directory — a single log in the root and no manifest
// — is refused: opening a fresh epoch beside it would silently serve
// empty state. With no cfg.Dir, Open opens no logs.
func Open(engine *shard.Engine, cfg Config) (*Journal, shard.RecoverStats, error) {
	logs, epoch, stats, err := openDir(engine, cfg)
	if err != nil {
		return nil, stats, err
	}
	j, err := newJournal(engine, cfg, logs, epoch, stats.NextSeq)
	return j, stats, err
}

func openDir(engine *shard.Engine, cfg Config) ([]*wal.Log, int, shard.RecoverStats, error) {
	root, shards := cfg.Dir, engine.Shards()
	fresh := shard.RecoverStats{NextSeq: 1}
	if root == "" {
		return nil, 0, fresh, nil
	}
	warnf := cfg.WAL.Warnf
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	m, ok, err := ReadManifest(root)
	if err != nil {
		return nil, 0, fresh, err
	}
	if !ok {
		legacy, err := hasLegacyWAL(root)
		if err != nil {
			return nil, 0, fresh, err
		}
		if legacy {
			return nil, 0, fresh, fmt.Errorf("wal dir %s holds a pre-sharding single log (root-level wal-*/snap-* files, no %s); "+
				"this ratingd only opens the per-shard epoch layout", root, manifestName)
		}
		epochs, err := Epochs(root)
		if err != nil {
			return nil, 0, fresh, err
		}
		if len(epochs) > 0 {
			// An epoch without a manifest can only be a crash before the
			// very first manifest commit of a fresh directory — its
			// content is at most a replayable prefix of what the manifest
			// would have committed, so adopting it loses nothing.
			epoch := epochs[len(epochs)-1]
			n, err := countShardDirs(root, epoch)
			if err != nil {
				return nil, 0, fresh, err
			}
			if n == 0 {
				n = shards
			}
			warnf("wal: no manifest but found %s (%d shards); adopting it", epochDirName(epoch), n)
			m, ok = Manifest{Version: manifestVersion, Epoch: epoch, Shards: n}, true
			if err := writeManifest(root, m); err != nil {
				return nil, 0, fresh, err
			}
		}
	}

	if !ok {
		// Fresh directory: create epoch 1 and commit it.
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, 0, fresh, err
		}
		logs, _, err := openLogSet(cfg, 1, shards)
		if err != nil {
			return nil, 0, fresh, err
		}
		if err := writeManifest(root, Manifest{Version: manifestVersion, Epoch: 1, Shards: shards}); err != nil {
			closeLogSet(logs)
			return nil, 0, fresh, err
		}
		return logs, 1, fresh, nil
	}

	// Best-effort cleanup of epochs the manifest has superseded (a
	// crash between manifest flip and directory removal leaves them).
	if epochs, err := Epochs(root); err == nil {
		for _, e := range epochs {
			if e != m.Epoch {
				warnf("wal: removing superseded %s", epochDirName(e))
				if err := os.RemoveAll(epochPath(root, e)); err != nil {
					warnf("wal: could not remove %s: %v", epochDirName(e), err)
				}
			}
		}
	}

	logs, recs, err := openLogSet(cfg, m.Epoch, m.Shards)
	if err != nil {
		return nil, 0, fresh, err
	}
	stats, err := shard.Recover(engine, recs, warnf)
	if m.Shards == shards {
		if err != nil {
			closeLogSet(logs)
			return nil, 0, stats, fmt.Errorf("recover epoch %d: %w", m.Epoch, err)
		}
		return logs, m.Epoch, stats, nil
	}

	// Shard count changed: Recover remapped every rating to its new
	// shard by hash; migrate the recovered state to a new epoch.
	closeLogSet(logs)
	if err != nil {
		return nil, 0, stats, fmt.Errorf("recover epoch %d (%d shards): %w", m.Epoch, m.Shards, err)
	}
	warnf("wal: shard count %d -> %d; migrating %d ratings to epoch %d",
		m.Shards, shards, engine.Len(), m.Epoch+1)
	if logs, err = migrateToEpoch(engine, cfg, m.Epoch+1, stats.NextSeq); err != nil {
		return nil, 0, stats, err
	}
	// The old epoch is superseded; losing this removal only costs disk
	// until the next startup's cleanup pass.
	if err := os.RemoveAll(epochPath(root, m.Epoch)); err != nil {
		warnf("wal: could not remove retired %s: %v", epochDirName(m.Epoch), err)
	}
	return logs, m.Epoch + 1, stats, nil
}

// Promote commits engine's state — a promoted follower's, at barrier
// seq-1 — as a fresh epoch of cfg.Dir and returns the journal in front
// of it, so the new primary can serve bootstraps and streams at once.
// epoch is the one to commit; a stale local manifest that already
// names it or a later one (a follower re-pointed here before promotion
// may have left one) is bumped past. With no cfg.Dir, Promote opens no
// logs.
func Promote(engine *shard.Engine, cfg Config, epoch int, seq uint64) (*Journal, error) {
	var logs []*wal.Log
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if m, ok, err := ReadManifest(cfg.Dir); err == nil && ok && m.Epoch >= epoch {
			epoch = m.Epoch + 1
		}
		var err error
		if logs, err = migrateToEpoch(engine, cfg, epoch, seq); err != nil {
			return nil, fmt.Errorf("commit promoted epoch %d: %w", epoch, err)
		}
	}
	return newJournal(engine, cfg, logs, epoch, seq)
}

// migrateToEpoch writes the engine's current state into a fresh,
// fully-snapshotted epoch and then — only then — flips the manifest.
func migrateToEpoch(engine *shard.Engine, cfg Config, epoch int, seq uint64) ([]*wal.Log, error) {
	// A half-written target epoch from an interrupted migration (at a
	// possibly different shard count) is garbage: start clean.
	if err := os.RemoveAll(epochPath(cfg.Dir, epoch)); err != nil {
		return nil, err
	}
	logs, _, err := openLogSet(cfg, epoch, engine.Shards())
	if err != nil {
		return nil, err
	}
	if err := rebaseLogs(logs, engine, seq-1); err != nil {
		closeLogSet(logs)
		return nil, fmt.Errorf("snapshot epoch %d: %w", epoch, err)
	}
	if err := writeManifest(cfg.Dir, Manifest{Version: manifestVersion, Epoch: epoch, Shards: engine.Shards()}); err != nil {
		closeLogSet(logs)
		return nil, fmt.Errorf("commit epoch %d: %w", epoch, err)
	}
	return logs, nil
}
