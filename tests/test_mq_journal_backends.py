"""Journal backends: crash-hook commit-group atomicity on the file journal
and the SQL store, the backend registry (`journal_for` /
`journal_factory_for`), post-commit hook lifetime across aborted
commit groups, and the SQL store's refusal of corrupt rows and
non-database files."""

import os

import pytest

from repro.errors import PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import DeliveryMode, Message
from repro.mq.persistence import (
    FileJournal,
    MemoryJournal,
    journal_factory_for,
    journal_for,
)
from repro.mq.sqlstore import SqlQueueStore
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock()


class SimulatedCrash(BaseException):
    """Stands in for repro.chaos.faults.CrashPoint (BaseException, too)."""


#: Durable backends that take a crash hook at the commit-group boundary.
DURABLE = ["file", "sqlstore"]


def open_store(backend, tmp_path, **kwargs):
    suffix = ".db" if backend == "sqlstore" else ".journal"
    return journal_for(f"{backend}:{tmp_path}/qm{suffix}", **kwargs)


class TestFileJournalBasics:
    def test_roundtrip_across_restart(self, clock, tmp_path):
        path = str(tmp_path / "qm.journal")
        manager = QueueManager("QM.S", clock, journal=FileJournal(path))
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body={"k": 1}))
        manager.put("A.Q", Message(body="two", priority=7))
        manager.get("A.Q")  # removes priority-7 "two" first
        manager.journal.close()
        recovered = QueueManager.recover("QM.S", clock, FileJournal(path))
        assert [m.body for m in recovered.browse("A.Q")] == [{"k": 1}]

    def test_non_persistent_messages_not_journaled(self, clock, tmp_path):
        journal = FileJournal(str(tmp_path / "qm.journal"))
        manager = QueueManager("QM.S", clock, journal=journal)
        manager.define_queue("A.Q")
        manager.put(
            "A.Q", Message(body=1, delivery_mode=DeliveryMode.NON_PERSISTENT)
        )
        assert journal.size() == 1  # just the queue definition

    def test_no_torn_tail_accounting(self, tmp_path):
        path = str(tmp_path / "qm.journal")
        journal = FileJournal(path)
        journal.append({"op": "define", "queue": "A.Q"})
        journal.read_all()
        assert journal.skipped_trailing_records == 0
        journal.close()
        reopened = FileJournal(path)  # an intact log heals nothing away
        assert reopened.skipped_trailing_records == 0
        assert reopened.read_all() == [{"op": "define", "queue": "A.Q"}]
        reopened.close()

    def test_auto_compaction(self, clock, tmp_path):
        journal = FileJournal(str(tmp_path / "qm.journal"), compaction_threshold=20)
        manager = QueueManager("QM.S", clock, journal=journal)
        manager.define_queue("A.Q")
        for i in range(40):
            manager.put("A.Q", Message(body=i))
        assert journal.rewrites >= 1
        assert journal.size() < 50
        recovered = QueueManager.recover("QM.S", clock, journal)
        assert len(list(recovered.browse("A.Q"))) == 40
        journal.close()

    def test_sync_and_close_idempotent(self, tmp_path):
        journal = FileJournal(str(tmp_path / "qm.journal"), sync="batch")
        journal.append({"op": "define", "queue": "A.Q"})
        journal.sync()
        journal.close()
        journal.close()  # second close must not raise

    def test_metrics_reported(self, clock, tmp_path):
        metrics = MetricsRegistry()
        manager = QueueManager(
            "QM.S",
            clock,
            journal=FileJournal(str(tmp_path / "qm.journal")),
            metrics=metrics,
        )
        manager.define_queue("A.Q")
        with manager.group_commit():
            manager.put("A.Q", Message(body=1))
            manager.put("A.Q", Message(body=2))
        assert metrics.counter("journal.flushes") >= 2
        assert metrics.counter("journal.records") >= 3
        assert metrics.counter("journal.bytes") > 0
        manager.journal.close()


class TestCrashHookGroupAtomicity:
    """A crash at the commit-group boundary loses or keeps the whole
    group, never part of it."""

    @pytest.mark.parametrize("backend", DURABLE)
    def test_pre_flush_crash_loses_whole_group(self, clock, tmp_path, backend):
        store = open_store(backend, tmp_path, sync="none")
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")

        def boom(record_count):
            raise SimulatedCrash()

        store.on_pre_flush = boom
        with pytest.raises(SimulatedCrash):
            with manager.group_commit():
                manager.put("A.Q", Message(body="x"))
                manager.put("A.Q", Message(body="y"))
        store.on_pre_flush = None
        recovered = QueueManager.recover("QM.S", clock, store)
        assert list(recovered.browse("A.Q")) == []
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_post_flush_crash_keeps_whole_group(self, clock, tmp_path, backend):
        store = open_store(backend, tmp_path, sync="none")
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")

        def boom(record_count):
            raise SimulatedCrash()

        store.on_post_flush = boom
        with pytest.raises(SimulatedCrash):
            with manager.group_commit():
                manager.put("A.Q", Message(body="x"))
                manager.put("A.Q", Message(body="y"))
        store.on_post_flush = None
        recovered = QueueManager.recover("QM.S", clock, store)
        assert sorted(m.body for m in recovered.browse("A.Q")) == ["x", "y"]
        store.close()


class TestBackendRegistry:
    def test_journal_for_schemes(self, tmp_path):
        memory = journal_for("memory:")
        assert isinstance(memory, MemoryJournal)
        file_journal = journal_for(f"file:{tmp_path}/a.journal", sync="batch")
        assert isinstance(file_journal, FileJournal)
        assert file_journal.sync_policy == "batch"
        store = journal_for(f"sqlstore:{tmp_path}/a.db")
        assert isinstance(store, SqlQueueStore)
        file_journal.close()
        store.close()

    def test_binfile_is_a_file_alias(self, tmp_path):
        journal = journal_for(f"binfile:{tmp_path}/a.journal")
        assert type(journal) is FileJournal
        journal.close()

    def test_binary_codec_accepted(self, tmp_path):
        journal = journal_for(f"file:{tmp_path}/a.journal?codec=binary")
        assert isinstance(journal, FileJournal)
        journal.close()
        journal = journal_for(f"file:{tmp_path}/b.journal", codec="binary")
        journal.close()
        factory = journal_factory_for("memory", codec="binary")
        assert isinstance(factory("QM"), MemoryJournal)

    def test_bare_path_means_file(self, tmp_path):
        journal = journal_for(str(tmp_path / "bare.journal"))
        assert isinstance(journal, FileJournal)
        journal.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(PersistenceError, match="registered"):
            journal_for("etcd:/somewhere")

    def test_removed_sqlite_scheme_rejected(self, tmp_path):
        with pytest.raises(PersistenceError) as excinfo:
            journal_for(f"sqlite:{tmp_path}/x.db")
        message = str(excinfo.value)
        assert "'sqlite'" in message
        for backend in ("binfile", "file", "memory"):
            assert backend in message
        assert not (tmp_path / "x.db").exists()

    @pytest.mark.parametrize("codec", ["json", "nonesuch"])
    def test_non_binary_codec_rejected(self, tmp_path, codec):
        for call in (
            lambda: journal_for(f"file:{tmp_path}/a.journal", codec=codec),
            lambda: journal_for(f"file:{tmp_path}/a.journal?codec={codec}"),
            lambda: journal_factory_for("memory", codec=codec),
        ):
            with pytest.raises(PersistenceError) as excinfo:
                call()
            assert repr(codec) in str(excinfo.value)
            assert "'binary'" in str(excinfo.value)
        assert not (tmp_path / "a.journal").exists()

    def test_pathless_file_backend_rejected(self):
        with pytest.raises(PersistenceError, match="needs a path"):
            journal_for("file:")

    def test_manager_accepts_backend_url(self, clock, tmp_path):
        manager = QueueManager("QM.S", clock, journal=f"file:{tmp_path}/qm.journal")
        assert isinstance(manager.journal, FileJournal)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body=1))
        manager.journal.close()
        recovered = QueueManager.recover("QM.S", clock, f"file:{tmp_path}/qm.journal")
        assert [m.body for m in recovered.browse("A.Q")] == [1]

    @pytest.mark.parametrize(
        "backend, kind, suffix",
        [
            ("file", FileJournal, "QM_R1.journal"),
            ("sqlstore", SqlQueueStore, "QM_R1.db"),
        ],
    )
    def test_factory_places_per_manager_stores(self, tmp_path, backend, kind, suffix):
        journal = journal_factory_for(backend, str(tmp_path))("QM.R1")
        assert isinstance(journal, kind)
        assert journal.path.endswith(suffix)
        journal.close()
        memory_factory = journal_factory_for("memory")
        assert isinstance(memory_factory("QM.R1"), MemoryJournal)

    def test_factory_requires_directory(self):
        with pytest.raises(PersistenceError, match="directory"):
            journal_factory_for("file")
        with pytest.raises(PersistenceError, match="registered"):
            journal_factory_for("etcd")


class TestPostCommitHookLifetime:
    """Aborted commit groups must drop their deferred callbacks — never
    fire them early, never leak them into the next unrelated commit."""

    @pytest.mark.parametrize(
        "make_journal",
        [
            lambda tmp_path: MemoryJournal(),
            lambda tmp_path: FileJournal(str(tmp_path / "hooks.journal")),
        ],
        ids=["memory", "file"],
    )
    def test_pre_flush_crash_clears_hooks(self, tmp_path, make_journal):
        journal = make_journal(tmp_path)
        fired = []

        def boom(record_count):
            raise SimulatedCrash()

        journal.on_pre_flush = boom
        with pytest.raises(SimulatedCrash):
            with journal.batch():
                journal.append({"op": "define", "queue": "A.Q"})
                journal.post_commit(lambda: fired.append("stale"))
        journal.on_pre_flush = None
        assert not journal._post_commit_hooks
        # The next, unrelated commit must not fire the stale callback.
        with journal.batch():
            journal.append({"op": "define", "queue": "B.Q"})
        assert fired == []
        journal.close()

    def test_pre_flush_crash_clears_sqlstore_hooks(self, clock, tmp_path):
        store = SqlQueueStore(str(tmp_path / "hooks.db"))
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")
        fired = []

        def boom(record_count):
            raise SimulatedCrash()

        store.on_pre_flush = boom
        with pytest.raises(SimulatedCrash):
            with manager.group_commit():
                manager.put("A.Q", Message(body="x"))
                store.post_commit(lambda: fired.append("stale"))
        store.on_pre_flush = None
        with manager.group_commit():
            manager.put("A.Q", Message(body="y"))
        assert fired == []
        store.close()

    def test_body_abort_with_nothing_staged_drops_hooks(self):
        journal = MemoryJournal()
        fired = []
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.post_commit(lambda: fired.append("early"))
                raise RuntimeError("application error before any append")
        # Nothing was staged, so nothing became durable: the callback
        # must not run — not now, not on the next commit.
        assert fired == []
        with journal.batch():
            journal.append({"op": "define", "queue": "B.Q"})
        assert fired == []

    def test_raising_hook_clears_reentrant_registrations(self):
        journal = MemoryJournal()
        fired = []

        def hook_registers_then_dies():
            journal._post_commit_hooks.append(lambda: fired.append("stale"))
            raise SimulatedCrash()

        with pytest.raises(SimulatedCrash):
            with journal.batch():
                journal.append({"op": "define", "queue": "A.Q"})
                journal.post_commit(hook_registers_then_dies)
        assert not journal._post_commit_hooks
        with journal.batch():
            journal.append({"op": "define", "queue": "B.Q"})
        assert fired == []

    def test_committed_group_still_fires_hooks(self):
        journal = MemoryJournal()
        fired = []
        with journal.batch():
            journal.append({"op": "define", "queue": "A.Q"})
            journal.post_commit(lambda: fired.append("ok"))
        assert fired == ["ok"]


class TestSqlStoreRefusal:
    """The SQL store refuses what it cannot read with
    :class:`PersistenceError`, as the journals do, and leaves no handle
    behind when it refuses to open."""

    @pytest.mark.parametrize(
        "payload", ['{"op": "put", "mess', "P!not-base64!"], ids=["json", "pickle"]
    )
    def test_corrupt_row_refused(self, clock, tmp_path, payload):
        store = SqlQueueStore(str(tmp_path / "qm.db"))
        manager = QueueManager("QM.S", clock, journal=store)
        manager.define_queue("A.Q")
        manager.put("A.Q", Message(body=1))
        store._con.execute(
            "INSERT INTO messages (queue, message_id, priority,"
            " delivery_mode, persistent, encoded)"
            " VALUES ('A.Q', 'corrupt', 9, 'persistent', 1, ?)",
            (payload,),
        )
        with pytest.raises(PersistenceError, match="corrupt queue store row"):
            store.recover()
        with pytest.raises(PersistenceError, match="corrupt queue store row"):
            list(manager.browse("A.Q"))
        store.close()

    def test_open_failure_on_non_sqlite_file_releases_handle(self, tmp_path):
        path = str(tmp_path / "not-a-db.db")
        with open(path, "w") as handle:
            handle.write("plain text, definitely not SQLite")
        with pytest.raises(PersistenceError, match="cannot open queue store"):
            SqlQueueStore(path)
        # The refused path is untouched and immediately reusable (no
        # lingering handle holding a half-initialised connection open).
        with open(path) as handle:
            assert handle.read().startswith("plain text")
        os.remove(path)
        SqlQueueStore(path).close()
