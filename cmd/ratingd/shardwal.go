package main

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

// A sharded -wal directory is laid out as
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

type walManifest struct {
	Version int `json:"version"`
	Epoch   int `json:"epoch"`
	Shards  int `json:"shards"`
}

func epochDirName(epoch int) string       { return fmt.Sprintf("%s%04d", epochPrefix, epoch) }
func shardSubdirName(i int) string        { return fmt.Sprintf("%s%04d", shardPrefix, i) }
func manifestPath(root string) string     { return filepath.Join(root, manifestName) }
func epochPath(root string, e int) string { return filepath.Join(root, epochDirName(e)) }

func shardWALPath(root string, epoch, i int) string {
	return filepath.Join(epochPath(root, epoch), shardSubdirName(i))
}

// readManifest reports ok=false when the file does not exist; any
// other failure (corruption, wrong version) is an error — guessing at
// the layout of a durability directory is how data gets lost.
func readManifest(root string) (walManifest, bool, error) {
	data, err := os.ReadFile(manifestPath(root))
	if os.IsNotExist(err) {
		return walManifest{}, false, nil
	}
	if err != nil {
		return walManifest{}, false, err
	}
	var m walManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return walManifest{}, false, fmt.Errorf("manifest %s corrupt: %w", manifestPath(root), err)
	}
	if m.Version != manifestVersion {
		return walManifest{}, false, fmt.Errorf("manifest %s: unsupported version %d", manifestPath(root), m.Version)
	}
	if m.Epoch < 1 || m.Shards < 1 {
		return walManifest{}, false, fmt.Errorf("manifest %s: invalid epoch=%d shards=%d", manifestPath(root), m.Epoch, m.Shards)
	}
	return m, true, nil
}

// writeManifest commits atomically and durably: temp file, fsync,
// rename, directory fsync — the same discipline as snapshot writes.
func writeManifest(root string, m walManifest) error {
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

// scanEpochs lists epoch numbers present on disk, ascending.
func scanEpochs(root string) ([]int, error) {
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
		if _, err := os.Stat(shardWALPath(root, epoch, n)); err != nil {
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

// shardWALs is the result of opening (and, when needed, migrating)
// the sharded log directory: the live epoch's logs, the next barrier
// sequence number, and how many logged records recovery re-applied.
type shardWALs struct {
	logs     []*wal.Log
	seq      uint64
	epoch    int
	replayed int
}

// openLogSet opens one WAL per shard under the given epoch, in
// parallel (each open scans and fsyncs its own directory). On partial
// failure every opened log is closed before returning.
func openLogSet(root string, epoch, n int, mkOpts func(dir string) wal.Options) ([]*wal.Log, []shard.RecoveredShard, error) {
	type opened struct {
		log *wal.Log
		rec *wal.Recovery
	}
	res, err := parallel.Map(n, 0, func(i int) (opened, error) {
		l, rec, err := wal.Open(mkOpts(shardWALPath(root, epoch, i)))
		if err != nil {
			return opened{}, fmt.Errorf("shard %d: %w", i, err)
		}
		return opened{l, rec}, nil
	})
	if err != nil {
		for _, o := range res {
			if o.log != nil {
				o.log.Close()
			}
		}
		return nil, nil, err
	}
	logs := make([]*wal.Log, n)
	recs := make([]shard.RecoveredShard, n)
	for i, o := range res {
		logs[i] = o.log
		recs[i] = shard.RecoveredShard{Snapshot: o.rec.Snapshot, Records: o.rec.Records}
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
// new baseline, all at the same barrier height.
func rebaseLogs(logs []*wal.Log, engine *shard.Engine, barrier uint64) error {
	for i, l := range logs {
		i := i
		if err := l.Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(engine, i, barrier, w)
		}); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// openShardWALs opens the sharded log directory for `shards` workers,
// recovering prior state into engine. Two shapes of prior content are
// handled:
//
//   - same shard count: open the live epoch and replay it;
//   - different shard count: recover the old epoch (ratings remap by
//     hash), write a fully-snapshotted new epoch, then commit the
//     manifest flip and retire the old directory.
//
// A pre-sharding directory — a single log in the root and no manifest
// — is refused: opening a fresh epoch beside it would silently serve
// empty state.
func openShardWALs(root string, shards int, engine *shard.Engine,
	mkOpts func(dir string) wal.Options) (*shardWALs, error) {

	m, ok, err := readManifest(root)
	if err != nil {
		return nil, err
	}
	if !ok {
		legacy, err := hasLegacyWAL(root)
		if err != nil {
			return nil, err
		}
		if legacy {
			return nil, fmt.Errorf("wal dir %s holds a pre-sharding single log (root-level wal-*/snap-* files, no %s); "+
				"this ratingd only opens the per-shard epoch layout", root, manifestName)
		}
		epochs, err := scanEpochs(root)
		if err != nil {
			return nil, err
		}
		if len(epochs) > 0 {
			// An epoch without a manifest can only be a crash before the
			// very first manifest commit of a fresh directory — its
			// content is at most a replayable prefix of what the manifest
			// would have committed, so adopting it loses nothing.
			epoch := epochs[len(epochs)-1]
			n, err := countShardDirs(root, epoch)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				n = shards
			}
			warnf("wal: no manifest but found %s (%d shards); adopting it", epochDirName(epoch), n)
			m, ok = walManifest{Version: manifestVersion, Epoch: epoch, Shards: n}, true
			if err := writeManifest(root, m); err != nil {
				return nil, err
			}
		}
	}

	if !ok {
		// Fresh directory: create epoch 1 and commit it.
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, err
		}
		logs, _, err := openLogSet(root, 1, shards, mkOpts)
		if err != nil {
			return nil, err
		}
		if err := writeManifest(root, walManifest{Version: manifestVersion, Epoch: 1, Shards: shards}); err != nil {
			closeLogSet(logs)
			return nil, err
		}
		return &shardWALs{logs: logs, seq: 1, epoch: 1}, nil
	}

	// Best-effort cleanup of epochs the manifest has superseded (a
	// crash between manifest flip and directory removal leaves them).
	if epochs, err := scanEpochs(root); err == nil {
		for _, e := range epochs {
			if e != m.Epoch {
				warnf("wal: removing superseded %s", epochDirName(e))
				if err := os.RemoveAll(epochPath(root, e)); err != nil {
					warnf("wal: could not remove %s: %v", epochDirName(e), err)
				}
			}
		}
	}

	if m.Shards == shards {
		logs, recs, err := openLogSet(root, m.Epoch, shards, mkOpts)
		if err != nil {
			return nil, err
		}
		stats, err := shard.Recover(engine, recs, warnf)
		if err != nil {
			closeLogSet(logs)
			return nil, fmt.Errorf("recover epoch %d: %w", m.Epoch, err)
		}
		if stats.SnapshotRatings > 0 || stats.Applied > 0 || stats.Windows > 0 {
			fmt.Printf("recovered %d ratings, %d windows across %d shards (epoch %d)\n",
				engine.Len(), stats.Windows, shards, m.Epoch)
		}
		return &shardWALs{logs: logs, seq: stats.NextSeq, epoch: m.Epoch, replayed: stats.Applied + stats.Windows}, nil
	}

	// Shard count changed: recover the old epoch (Recover remaps every
	// rating to its new shard by hash), then migrate to a new epoch.
	oldLogs, recs, err := openLogSet(root, m.Epoch, m.Shards, mkOpts)
	if err != nil {
		return nil, err
	}
	stats, err := shard.Recover(engine, recs, warnf)
	closeLogSet(oldLogs)
	if err != nil {
		return nil, fmt.Errorf("recover epoch %d (%d shards): %w", m.Epoch, m.Shards, err)
	}
	warnf("wal: shard count %d -> %d; migrating %d ratings to epoch %d",
		m.Shards, shards, engine.Len(), m.Epoch+1)
	w, err := migrateToEpoch(root, m.Epoch+1, shards, engine, stats.NextSeq, mkOpts)
	if err != nil {
		return nil, err
	}
	// The old epoch is superseded; losing this removal only costs disk
	// until the next startup's cleanup pass.
	if err := os.RemoveAll(epochPath(root, m.Epoch)); err != nil {
		warnf("wal: could not remove retired %s: %v", epochDirName(m.Epoch), err)
	}
	w.replayed = stats.Applied + stats.Windows
	return w, nil
}

// migrateToEpoch writes the engine's current state into a fresh,
// fully-snapshotted epoch and then — only then — flips the manifest.
func migrateToEpoch(root string, epoch, shards int, engine *shard.Engine, seq uint64,
	mkOpts func(dir string) wal.Options) (*shardWALs, error) {
	// A half-written target epoch from an interrupted migration (at a
	// possibly different shard count) is garbage: start clean.
	if err := os.RemoveAll(epochPath(root, epoch)); err != nil {
		return nil, err
	}
	logs, _, err := openLogSet(root, epoch, shards, mkOpts)
	if err != nil {
		return nil, err
	}
	if err := rebaseLogs(logs, engine, seq-1); err != nil {
		closeLogSet(logs)
		return nil, fmt.Errorf("snapshot epoch %d: %w", epoch, err)
	}
	if err := writeManifest(root, walManifest{Version: manifestVersion, Epoch: epoch, Shards: shards}); err != nil {
		closeLogSet(logs)
		return nil, fmt.Errorf("commit epoch %d: %w", epoch, err)
	}
	return &shardWALs{logs: logs, seq: seq, epoch: epoch}, nil
}
