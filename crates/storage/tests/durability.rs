//! Durability tests: WAL recovery under injected faults.
//!
//! Regression coverage for the storage write path's durability bugs (each
//! `reopen_after_*` test is one bug), plus a property test interleaving
//! inserts, deletes and flushes with injected I/O errors: every operation
//! either reports the error or leaves the tree readable, and reopening
//! the environment always recovers exactly the last committed state.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldb_storage::{
    BTree, Env, EnvConfig, FaultBackend, FaultState, KillMode, PageId, StorageError,
};

/// Unique scratch directory per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "saardb-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny pages and a tiny pool: splits and eviction steals from the start.
fn config() -> EnvConfig {
    EnvConfig {
        page_size: 256,
        pool_bytes: 8 * 256,
    }
}

fn faulted_env(dir: &PathBuf, faults: &Arc<FaultState>) -> Env {
    let faults = Arc::clone(faults);
    Env::open_dir_with_decorator(
        dir,
        config(),
        Arc::new(move |_name, inner| Arc::new(FaultBackend::new(inner, Arc::clone(&faults))) as _),
    )
    .unwrap()
}

/// Reads the whole tree into a map (readability probe + content check).
fn tree_contents(tree: &BTree) -> xmldb_storage::Result<BTreeMap<Vec<u8>, Vec<u8>>> {
    let mut out = BTreeMap::new();
    tree.scan(|k, v| {
        out.insert(k.to_vec(), v.to_vec());
        true
    })?;
    Ok(out)
}

fn key(i: u64) -> Vec<u8> {
    format!("key{:06}", (i * 7919) % 1_000_000).into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat((i % 23) as usize)).into_bytes()
}

/// Kill mid-workload, reopen, and the tree must equal the last committed
/// (flushed) state — the end-to-end WAL guarantee at the storage level.
#[test]
fn reopen_after_kill_recovers_committed_prefix() {
    let dir = scratch("kill");
    for kill_at in [3u64, 9, 17, 40] {
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultState::new();
        let mut committed = BTreeMap::new();
        {
            let env = faulted_env(&dir, &faults);
            let mut tree = BTree::create(&env, "t").unwrap();
            let mut model = BTreeMap::new();
            faults.arm_kill(kill_at, KillMode::BeforeWrite);
            for i in 0..400u64 {
                if tree.insert(&key(i), &value(i)).is_err() {
                    break;
                }
                model.insert(key(i), value(i));
                if (i + 1) % 25 == 0 {
                    if env.flush().is_err() {
                        break;
                    }
                    committed = model.clone();
                }
            }
            assert!(faults.is_killed(), "kill-point {kill_at} never fired");
        }
        let env = Env::open_dir(&dir, config()).unwrap();
        if committed.is_empty() {
            // Nothing was ever committed; the tree may not even open.
            continue;
        }
        let tree = BTree::open(&env, "t").unwrap();
        assert_eq!(
            tree_contents(&tree).unwrap(),
            committed,
            "kill-point {kill_at}: recovered tree diverges from committed state"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn page write at the kill-point: recovery must still restore the
/// committed images (the torn page is rolled back from its before-image).
#[test]
fn reopen_after_torn_write_recovers() {
    let dir = scratch("torn");
    let faults = FaultState::new();
    let committed;
    {
        let env = faulted_env(&dir, &faults);
        let mut tree = BTree::create(&env, "t").unwrap();
        let mut model = BTreeMap::new();
        for i in 0..60u64 {
            tree.insert(&key(i), &value(i)).unwrap();
            model.insert(key(i), value(i));
        }
        env.flush().unwrap();
        committed = model.clone();
        faults.arm_kill(2, KillMode::TornWrite);
        for i in 60..400u64 {
            if tree.insert(&key(i), &value(i)).is_err() || env.flush().is_err() {
                break;
            }
        }
        assert!(faults.is_killed());
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let report = env.recovery_report().unwrap().clone();
    let tree = BTree::open(&env, "t").unwrap();
    let contents = tree_contents(&tree).unwrap();
    // The committed prefix survives; a flush attempted after the kill may
    // have committed more, but never less.
    for (k, v) in &committed {
        assert_eq!(contents.get(k), Some(v), "committed key lost ({report:?})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a failed `Backend::sync` must leave the dirty bits set
/// so a retried flush rewrites (and re-syncs) the page instead of silently
/// losing the write.
#[test]
fn failed_sync_does_not_lose_writes() {
    let dir = scratch("sync");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let mut tree = BTree::create(&env, "t").unwrap();
        tree.insert(b"k", b"v").unwrap();
        faults.fail_next_sync();
        let err = env.flush().unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        // Retry: the page is still dirty, so it is written and synced now.
        env.flush().unwrap();
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let tree = BTree::open(&env, "t").unwrap();
    assert_eq!(tree.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a crash mid-extension leaves a torn tail; the file must
/// reopen (rounded down to whole pages) instead of failing `Corrupt`.
#[test]
fn reopen_after_torn_extension_recovers() {
    let dir = scratch("extend");
    {
        let env = Env::open_dir(&dir, config()).unwrap();
        let mut tree = BTree::create(&env, "t").unwrap();
        for i in 0..40u64 {
            tree.insert(&key(i), &value(i)).unwrap();
        }
        env.flush().unwrap();
    }
    // Simulate the torn extension directly: append a partial page.
    let path = dir.join("t.sdb");
    let len = std::fs::metadata(&path).unwrap().len();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xEE; 100]);
    std::fs::write(&path, &bytes).unwrap();
    let env = Env::open_dir(&dir, config()).unwrap();
    let tree = BTree::open(&env, "t").unwrap();
    for i in 0..40u64 {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(value(i)));
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        len,
        "torn tail trimmed back to whole pages"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment reports what recovery did.
#[test]
fn recovery_report_surfaces_through_env() {
    let dir = scratch("report");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let mut tree = BTree::create(&env, "t").unwrap();
        for i in 0..50u64 {
            tree.insert(&key(i), &value(i)).unwrap();
        }
        env.flush().unwrap();
        faults.arm_kill(4, KillMode::BeforeWrite);
        for i in 50..400u64 {
            if tree.insert(&key(i), &value(i)).is_err() {
                break;
            }
            let _ = env.flush();
            if faults.is_killed() {
                break;
            }
        }
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let report = env.recovery_report().unwrap();
    assert!(report.committed, "a commit marker was on disk");
    assert!(
        report.pages_redone > 0 || report.pages_undone > 0,
        "recovery had work to do: {report:?}"
    );
    // A clean reopen after the recovery is itself clean.
    drop(env);
    let env = Env::open_dir(&dir, config()).unwrap();
    assert!(env.recovery_report().unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transaction commit is the durability point: with no flush and no
/// steal after it, the crash leaves only the WAL holding the committed
/// pages, and recovery rebuilds them from it.
#[test]
fn committed_txn_survives_crash_before_any_flush_or_steal() {
    let dir = scratch("commit-only");
    let config = EnvConfig {
        page_size: 256,
        pool_bytes: 256 * 256,
    };
    let mut model = BTreeMap::new();
    {
        let env = Env::open_dir(&dir, config.clone()).unwrap();
        let txn = env.begin_txn();
        {
            let _scope = txn.install();
            let mut tree = BTree::create(&env, "t").unwrap();
            for i in 0..60u64 {
                tree.insert(&key(i), &value(i)).unwrap();
                model.insert(key(i), value(i));
            }
        }
        txn.commit().unwrap();
        assert_eq!(env.io_stats().physical_writes, 0, "nothing was stolen");
        // The crash: the environment is dropped without a flush.
    }
    let env = Env::open_dir(&dir, config).unwrap();
    assert_eq!(env.recovery_report().unwrap().txns_committed, 1);
    let tree = BTree::open(&env, "t").unwrap();
    assert_eq!(tree_contents(&tree).unwrap(), model);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame a commit logged is marked durable in the WAL: its steal writes
/// the data page with no second record and no fsync, and recovery still
/// yields the committed image. An untransacted write to a marked frame
/// clears the mark, so that frame's steal is logged again.
#[test]
fn steal_of_committed_frame_is_not_relogged() {
    let dir = scratch("marked-steal");
    let pages = 4u64;
    {
        let env = Env::open_dir(&dir, config()).unwrap();
        let f = env.create_file("f").unwrap();
        for i in 0..pages {
            let p = env.allocate_page(f).unwrap();
            env.with_page_mut(f, p, |d| d[0] = 0x10 + i as u8).unwrap();
        }
        env.flush().unwrap();
        let txn = env.begin_txn();
        {
            let _scope = txn.install();
            for i in 0..pages {
                env.with_page_mut(f, PageId(i), |d| d[0] = 0xC0 + i as u8)
                    .unwrap();
            }
        }
        txn.commit().unwrap();
        // Untransacted write to one marked frame: it must be logged again.
        env.with_page_mut(f, PageId(0), |d| d[0] = 0xEE).unwrap();
        let before = env.io_stats();
        // Evict everything: read more pages than the 8-frame pool holds.
        let g = env.create_file("g").unwrap();
        for _ in 0..16 {
            let p = env.allocate_page(g).unwrap();
            env.with_page(g, p, |_| ()).unwrap();
        }
        let d = env.io_stats().delta(&before);
        assert!(
            d.physical_writes >= pages,
            "all {pages} dirty frames stolen: {d:?}"
        );
        assert_eq!(
            d.wal_appends, 1,
            "only the rewritten frame is logged: {d:?}"
        );
        assert_eq!(d.wal_syncs, 1, "{d:?}");
        // The crash: no flush after the commit.
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let f = env.open_file("f").unwrap();
    for i in 0..pages {
        let got = env.with_page(f, PageId(i), |d| d[0]).unwrap();
        assert_eq!(got, 0xC0 + i as u8, "page {i} holds its committed image");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit that leaves the log past the checkpoint threshold flushes and
/// checkpoints after it is durable. When that flush fails, the commit
/// still succeeds (it was durable already) and the next quiescent flush
/// catches up.
#[test]
fn failed_auto_checkpoint_does_not_fail_the_commit() {
    let dir = scratch("auto-ckpt");
    let faults = FaultState::new();
    let config = EnvConfig {
        page_size: 8192,
        pool_bytes: 64 * 8192,
    };
    let pages = 600u64;
    {
        let state = Arc::clone(&faults);
        let env = Env::open_dir_with_decorator(
            &dir,
            config.clone(),
            Arc::new(move |_name, inner| {
                Arc::new(FaultBackend::new(inner, Arc::clone(&state))) as _
            }),
        )
        .unwrap();
        let f = env.create_file("big").unwrap();
        let txn = env.begin_txn();
        {
            let _scope = txn.install();
            for i in 0..pages {
                let p = env.allocate_page(f).unwrap();
                env.with_page_mut(f, p, |d| d[0] = (i % 251) as u8 + 1)
                    .unwrap();
            }
        }
        faults.fail_next_sync();
        txn.commit().unwrap();
        let wal = env.wal_bytes().unwrap();
        assert!(
            wal > xmldb_storage::wal::WAL_CHECKPOINT_BYTES,
            "the failed flush must not have checkpointed: {wal} bytes"
        );
        // The retry: a quiescent flush applies the threshold.
        env.flush().unwrap();
        assert!(env.wal_bytes().unwrap() < 1024, "checkpointed now");
    }
    let env = Env::open_dir(&dir, config).unwrap();
    let f = env.open_file("big").unwrap();
    for i in 0..pages {
        let got = env.with_page(f, PageId(i), |d| d[0]).unwrap();
        assert_eq!(got, (i % 251) as u8 + 1, "page {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hand-framed log record (`[len][crc32][payload]`).
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&xmldb_storage::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A transaction page image in the format without the zero-before flag:
/// the before-image is written out in full even when it is all zeros.
fn explicit_txn_image(txn: u64, name: &str, page: u64, before: &[u8], after: &[u8]) -> Vec<u8> {
    let mut p = vec![0x05];
    p.extend_from_slice(&txn.to_le_bytes());
    p.extend_from_slice(&(before.len() as u32).to_le_bytes());
    p.extend_from_slice(&(name.len() as u16).to_le_bytes());
    p.extend_from_slice(name.as_bytes());
    p.extend_from_slice(&page.to_le_bytes());
    p.extend_from_slice(before);
    p.extend_from_slice(after);
    framed(&p)
}

fn txn_commit(txn: u64, page_size: usize, name: &str, pages: u64) -> Vec<u8> {
    let mut p = vec![0x06];
    p.extend_from_slice(&txn.to_le_bytes());
    p.extend_from_slice(&(page_size as u32).to_le_bytes());
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&(name.len() as u16).to_le_bytes());
    p.extend_from_slice(name.as_bytes());
    p.extend_from_slice(&pages.to_le_bytes());
    framed(&p)
}

/// Zero before-images cost a flag, not a page, and replay rebuilds them;
/// records that spell the zeros out in full still replay the same way.
#[test]
fn zero_before_images_replay_in_both_encodings() {
    const PS: usize = 256;
    let zeros = vec![0u8; PS];
    let after = vec![0xABu8; PS];

    // Flagged: a loser's page reverts to the rebuilt zeros, a winner's
    // takes its after-image.
    let dir = scratch("zero-before");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("z.sdb"), [after.clone(), after.clone()].concat()).unwrap();
    {
        let wal = xmldb_storage::Wal::open(&dir).unwrap();
        wal.append_txn_page_image(1, "z", PageId(0), &zeros, &after)
            .unwrap();
        assert!(wal.len() < PS as u64 + 64, "one page logged, not two");
        wal.append_txn_page_image(2, "z", PageId(1), &zeros, &after)
            .unwrap();
        wal.append_txn_commit(1, PS, vec![("z".into(), 2)]).unwrap();
        wal.sync().unwrap();
    }
    let report = xmldb_storage::wal::replay(&dir).unwrap();
    assert_eq!((report.txns_committed, report.txns_rolled_back), (1, 1));
    assert_eq!(
        std::fs::read(dir.join("z.sdb")).unwrap(),
        [after.clone(), zeros.clone()].concat()
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Explicit zeros (no flag), the same story.
    let dir = scratch("zero-before-explicit");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("z.sdb"), [after.clone(), after.clone()].concat()).unwrap();
    let log = [
        explicit_txn_image(1, "z", 0, &zeros, &after),
        explicit_txn_image(2, "z", 1, &zeros, &after),
        txn_commit(1, PS, "z", 2),
    ]
    .concat();
    std::fs::write(dir.join(xmldb_storage::wal::WAL_FILE), log).unwrap();
    let report = xmldb_storage::wal::replay(&dir).unwrap();
    assert_eq!(report.torn_bytes, 0, "explicit zeros decode: {report}");
    assert_eq!((report.txns_committed, report.txns_rolled_back), (1, 1));
    assert_eq!(
        std::fs::read(dir.join("z.sdb")).unwrap(),
        [after, zeros].concat()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[derive(Debug, Clone)]
enum FaultOp {
    Insert(u64),
    Delete(u64),
    Get(u64),
    Flush,
    FailNextWrite,
    FailNextSync,
}

fn op_strategy() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        5 => (0u64..120).prop_map(FaultOp::Insert),
        1 => (0u64..120).prop_map(FaultOp::Delete),
        2 => (0u64..120).prop_map(FaultOp::Get),
        1 => Just(FaultOp::Flush),
        1 => Just(FaultOp::FailNextWrite),
        1 => Just(FaultOp::FailNextSync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaves tree operations with injected I/O errors. Every
    /// operation either returns an error or behaves per the model; after
    /// any error the environment is "crashed" (dropped) and reopened, and
    /// the recovered tree must equal the last committed state exactly.
    #[test]
    fn faults_never_corrupt_committed_state(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let dir = scratch("prop");
        let faults = FaultState::new();
        let mut env = faulted_env(&dir, &faults);
        let mut tree = Some(BTree::create(&env, "t").unwrap());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut committed: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut crashed = false;

        for op in &ops {
            if crashed {
                // Reopen: recovery must restore exactly the committed state.
                faults.disarm();
                drop(tree.take());
                env = faulted_env(&dir, &faults);
                if committed.is_empty() {
                    match BTree::open(&env, "t") {
                        Ok(t) => {
                            prop_assert_eq!(tree_contents(&t).unwrap(), committed.clone());
                            tree = Some(t);
                        }
                        Err(_) => {
                            // Never committed: recreate from scratch.
                            if let Ok(id) = env.open_file("t") {
                                let _ = env.remove_file(id);
                            }
                            tree = Some(BTree::create(&env, "t").unwrap());
                        }
                    }
                } else {
                    let t = BTree::open(&env, "t").unwrap();
                    prop_assert_eq!(tree_contents(&t).unwrap(), committed.clone());
                    tree = Some(t);
                }
                model = committed.clone();
                crashed = false;
            }
            let t = tree.as_mut().unwrap();
            match op {
                FaultOp::Insert(i) => match t.insert(&key(*i), &value(*i)) {
                    Ok(_) => { model.insert(key(*i), value(*i)); }
                    Err(_) => crashed = true,
                },
                FaultOp::Delete(i) => match t.delete(&key(*i)) {
                    Ok(_) => { model.remove(&key(*i)); }
                    Err(_) => crashed = true,
                },
                FaultOp::Get(i) => match t.get(&key(*i)) {
                    Ok(v) => prop_assert_eq!(v, model.get(&key(*i)).cloned()),
                    Err(_) => crashed = true,
                },
                FaultOp::Flush => match env.flush() {
                    Ok(()) => committed = model.clone(),
                    Err(_) => crashed = true,
                },
                FaultOp::FailNextWrite => faults.fail_next_write(),
                FaultOp::FailNextSync => faults.fail_next_sync(),
            }
        }

        // Final verdict: drop everything, recover, compare to committed.
        drop(tree.take());
        drop(env);
        let env = Env::open_dir(&dir, config()).unwrap();
        match BTree::open(&env, "t") {
            Ok(t) => prop_assert_eq!(tree_contents(&t).unwrap(), committed),
            Err(_) => prop_assert!(committed.is_empty(), "committed data must reopen"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
