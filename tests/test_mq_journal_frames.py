"""Binary journal record frames: magic byte, length, CRC-32, pickle.

Every journal record is written as one length-prefixed CRC-checked
frame.  These tests pin:

* round-trips, including non-JSON-safe bodies stored natively;
* torn-tail healing of frames and group-frame atomicity;
* CRC rejection of mid-file corruption;
* refusal of unserializable records before anything is written;
* refusal, without truncation, of a log in the retired JSON-lines format.
"""

import os

import pytest

from repro.errors import PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.persistence import FileJournal, encode_frame
from repro.sim.clock import SimulatedClock


def record(n, body=None):
    return {"op": "put", "queue": "Q", "message": {"n": n, "body": body}}


def test_binary_round_trip(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    journal.append(record(1))
    journal.append_many([record(2), record(3)])
    journal.close()
    reopened = FileJournal(path)
    assert [r["message"]["n"] for r in reopened.read_all()] == [1, 2, 3]
    reopened.close()


def test_frames_store_non_json_bodies_natively(tmp_path):
    # Frames are pickled wholesale, so message bodies that JSON cannot
    # express ride through without a pickle+base64 detour.
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    body = {"blob": b"\x00\xffdata", "pair": (1, 2), "tags": {"a", "b"}}
    journal.append(record(1, body=body))
    journal.close()
    reopened = FileJournal(path)
    assert reopened.read_all()[0]["message"]["body"] == body
    reopened.close()


def test_manager_recovery_round_trips(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    manager = QueueManager("QM.A", SimulatedClock(), journal=journal)
    manager.define_queue("APP.Q")
    manager.put("APP.Q", Message(body={"raw": b"\x01\x02"}))
    manager.put("APP.Q", Message(body="plain"))
    journal.close()
    recovered = QueueManager.recover(
        "QM.A", SimulatedClock(), FileJournal(path)
    )
    assert recovered.depth("APP.Q") == 2
    assert recovered.get("APP.Q").body == {"raw": b"\x01\x02"}
    assert recovered.get("APP.Q").body == "plain"


def test_torn_binary_tail_heals_at_open(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    journal.append(record(1))
    journal.append(record(2))
    journal.close()
    torn = encode_frame(record(3))[:-4]
    with open(path, "ab") as handle:
        handle.write(torn)
    healed = FileJournal(path)
    assert healed._healed_trailing_records == 1
    assert [r["message"]["n"] for r in healed.read_all()] == [1, 2]
    healed.append(record(4))  # appends after healing never hit torn bytes
    assert [r["message"]["n"] for r in healed.read_all()] == [1, 2, 4]
    healed.close()


def test_torn_group_frame_drops_the_whole_group(tmp_path):
    # A group is one physical frame: a tear anywhere inside drops every
    # member, never a prefix.
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    journal.append(record(1))
    journal.append_many([record(2), record(3)])
    journal.close()
    with open(path, "rb+") as handle:
        handle.truncate(os.path.getsize(path) - 2)
    healed = FileJournal(path)
    assert [r["message"]["n"] for r in healed.read_all()] == [1]
    healed.close()


def test_crc_mismatch_mid_file_is_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    journal.append(record(1))
    journal.append(record(2))
    journal.close()
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    # Flip one payload byte of the FIRST frame: not a torn tail, bit rot.
    data[10] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistenceError):
        FileJournal(path).read_all()


def test_unpicklable_records_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path)
    with pytest.raises(PersistenceError):
        journal.append(
            {"op": "put", "queue": "Q", "message": {"bad": lambda: None}}
        )
    journal.close()
    assert os.path.getsize(path) == 0  # nothing was written


def test_json_lines_journal_is_refused_not_healed(tmp_path):
    path = str(tmp_path / "old.journal")
    text = '{"op": "define", "queue": "A.Q"}\n{"op": "put", "queue": "A.Q"}\n'
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with pytest.raises(PersistenceError, match="JSON-lines"):
        FileJournal(path)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == text
