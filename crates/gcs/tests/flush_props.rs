//! Seeded property-style tests for the GCS disk tier: random op streams
//! driven through [`ShardState`] + a file-backed [`DiskStore`] are checked
//! against a two-tier reference model (memory shadowing disk), including
//! entries overwritten across multiple flush cycles, and the on-disk log
//! must rebuild to the same state after a reopen.

use bytes::Bytes;
use ray_common::util::DetRng;
use ray_gcs::flush::DiskStore;
use ray_gcs::kv::{Entry, Key, Member, MemberSet, ShardState, Table, UpdateOp};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

/// Reference model mirroring the tiered read semantics of the shard:
/// reads hit memory first, then the disk log; flushes move the oldest
/// flushable entries (insertion order) to disk; deletes only remove the
/// memory tier (flushed state is immutable history, not a tombstone log).
#[derive(Default)]
struct Model {
    mem: HashMap<Key, Entry>,
    disk: HashMap<Key, Entry>,
    order: BTreeMap<u64, Key>,
    seq_of: HashMap<Key, u64>,
    next_seq: u64,
}

impl Model {
    fn track(&mut self, key: &Key) {
        if !key.table.flushable() {
            return;
        }
        if let Some(old) = self.seq_of.get(key) {
            self.order.remove(old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, *key);
        self.seq_of.insert(*key, seq);
    }

    fn apply(&mut self, op: &UpdateOp) {
        match op {
            UpdateOp::Put { key, value } => {
                self.mem.insert(*key, Entry::Blob(value.clone()));
                self.track(key);
            }
            UpdateOp::SetAdd { key, member } => {
                let entry = self
                    .mem
                    .entry(*key)
                    .or_insert_with(|| Entry::Set(MemberSet::new()));
                if let Entry::Set(s) = entry {
                    s.insert(*member);
                }
                self.track(key);
            }
            UpdateOp::SetRemove { key, member } => {
                let mut emptied = false;
                if let Some(Entry::Set(s)) = self.mem.get_mut(key) {
                    s.remove(member);
                    emptied = s.is_empty();
                }
                if emptied {
                    self.mem.remove(key);
                }
            }
            UpdateOp::Delete { key } => {
                self.mem.remove(key);
                if let Some(seq) = self.seq_of.remove(key) {
                    self.order.remove(&seq);
                }
            }
            UpdateOp::Flush { table, keep_entries } => {
                let in_table: Vec<u64> = self
                    .order
                    .iter()
                    .filter(|(_, k)| k.table == *table)
                    .map(|(&seq, _)| seq)
                    .collect();
                if in_table.len() <= *keep_entries {
                    return;
                }
                let to_flush = in_table.len() - keep_entries;
                for seq in in_table.into_iter().take(to_flush) {
                    let key = self.order.remove(&seq).unwrap();
                    self.seq_of.remove(&key);
                    if let Some(entry) = self.mem.remove(&key) {
                        self.disk.insert(key, entry);
                    }
                }
            }
        }
    }

    fn get(&self, key: &Key) -> Option<Entry> {
        self.mem.get(key).or_else(|| self.disk.get(key)).cloned()
    }
}

/// The bounded key space the generator draws from. Put/Delete target Task
/// blobs, further puts target Lineage blobs, set ops target Object
/// location sets (non-flushable, as in the real system).
fn keyspace() -> Vec<Key> {
    let mut keys = Vec::new();
    for i in 0u8..8 {
        keys.push(Key::new(Table::Task, vec![i]));
    }
    for i in 0u8..6 {
        keys.push(Key::new(Table::Lineage, vec![0x40 + i]));
    }
    for i in 0u8..4 {
        keys.push(Key::new(Table::Object, vec![0x80 + i]));
    }
    keys
}

fn gen_op(rng: &mut DetRng, keys: &[Key]) -> UpdateOp {
    let tasks = &keys[..8];
    let lineage = &keys[8..14];
    let objects = &keys[14..];
    match rng.next_below(10) {
        // Weighted toward writes so flush cycles always have fresh prey.
        0..=2 => UpdateOp::Put {
            key: tasks[rng.next_below(tasks.len() as u64) as usize],
            value: Bytes::from(vec![rng.next_u64() as u8; (rng.next_below(64) + 1) as usize]),
        },
        3..=4 => UpdateOp::Put {
            key: lineage[rng.next_below(lineage.len() as u64) as usize],
            value: Bytes::from(vec![rng.next_u64() as u8; (rng.next_below(16) + 1) as usize]),
        },
        5 => UpdateOp::SetAdd {
            key: objects[rng.next_below(objects.len() as u64) as usize],
            member: Member::from_array([rng.next_below(5) as u8]),
        },
        6 => UpdateOp::SetRemove {
            key: objects[rng.next_below(objects.len() as u64) as usize],
            member: Member::from_array([rng.next_below(5) as u8]),
        },
        7 => UpdateOp::Delete {
            key: tasks[rng.next_below(tasks.len() as u64) as usize],
        },
        _ => UpdateOp::Flush {
            table: [Table::Task, Table::Lineage, Table::Object][rng.next_below(3) as usize],
            keep_entries: rng.next_below(4) as usize,
        },
    }
}

fn temp_log(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rustray-flush-props-{tag}-{}-{seed}.log", std::process::id()))
}

/// Random op streams keep `ShardState::get` identical to the two-tier
/// model at every checkpoint, across many flush/overwrite cycles, and the
/// rebuilt-from-log store serves exactly the model's disk tier.
#[test]
fn seeded_ops_match_model_through_flush_and_reopen() {
    for seed in [7u64, 41, 991] {
        let path = temp_log("model", seed);
        let _ = std::fs::remove_file(&path);
        let disk = Arc::new(DiskStore::create(path.clone()).unwrap());
        let mut state = ShardState::new(Arc::new(AtomicI64::new(0)), disk.clone());
        let mut model = Model::default();
        let keys = keyspace();
        let mut rng = DetRng::new(seed);

        for step in 0..1500 {
            let op = gen_op(&mut rng, &keys);
            state.apply(&op);
            model.apply(&op);
            if step % 250 == 0 {
                for k in &keys {
                    assert_eq!(state.get(k), model.get(k), "seed {seed} step {step} key {k:?}");
                }
            }
        }
        for k in &keys {
            assert_eq!(state.get(k), model.get(k), "seed {seed} final key {k:?}");
        }

        // Reopen the log: the rebuilt index must serve exactly the model's
        // disk tier (last flushed version per key), and replay must agree.
        drop(state);
        drop(disk);
        let reopened = DiskStore::reopen(path.clone()).unwrap();
        assert_eq!(reopened.keys_on_disk(), model.disk.len(), "seed {seed}");
        for (k, want) in &model.disk {
            assert_eq!(reopened.read(k).as_ref(), Some(want), "seed {seed} key {k:?}");
        }
        let mut replayed = reopened.replay();
        replayed.sort_by_key(|a| a.0);
        let mut expected: Vec<(Key, Entry)> =
            model.disk.iter().map(|(k, e)| (*k, e.clone())).collect();
        expected.sort_by_key(|a| a.0);
        assert_eq!(replayed, expected, "seed {seed}");
        let _ = std::fs::remove_file(path);
    }
}

/// An entry overwritten and re-flushed across several cycles must always
/// read back as its newest flushed version — both live and after reopen.
#[test]
fn multi_cycle_overwrites_keep_newest_flushed_version() {
    let path = temp_log("cycles", 0);
    let _ = std::fs::remove_file(&path);
    let disk = Arc::new(DiskStore::create(path.clone()).unwrap());
    let mut state = ShardState::new(Arc::new(AtomicI64::new(0)), disk.clone());
    let key = Key::new(Table::Task, vec![9]);
    for cycle in 0u8..5 {
        state.apply(&UpdateOp::Put {
            key,
            value: Bytes::from(vec![cycle; 32]),
        });
        state.apply(&UpdateOp::Flush { table: Table::Task, keep_entries: 0 });
        assert_eq!(
            state.get(&key),
            Some(Entry::Blob(Bytes::from(vec![cycle; 32]))),
            "cycle {cycle}"
        );
    }
    // Five versions were appended; the index must point at the last.
    drop(state);
    drop(disk);
    let reopened = DiskStore::reopen(path.clone()).unwrap();
    assert_eq!(reopened.keys_on_disk(), 1);
    assert_eq!(reopened.read(&key), Some(Entry::Blob(Bytes::from(vec![4u8; 32]))));
    let _ = std::fs::remove_file(path);
}
