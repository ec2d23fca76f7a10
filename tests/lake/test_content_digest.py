"""What the archive holds, pinned across changes of on-disk layout.

``SpotDataLake.digest()`` hashes file bytes, so any change to the segment
codec moves it.  The content digest hashes the decoded partitions
instead, and ``dump_store`` renders the recovered hot tier row by row:
both constants were recorded once and must survive a new segment
format unchanged -- the proof that the new files hold the same data.
``SEGMENT_FILES`` pins the bytes themselves, every ``.seg`` under the
data directory (lake rounds, the compacted day file, hot segments): it
holds across a rewrite of the encoder or of compaction that keeps the
format.
"""

import hashlib

from repro.cloudsim import SimulatedCloud
from repro.cloudsim.clock import PAPER_WINDOW_START, SECONDS_PER_DAY
from repro.core.service import ServiceConfig, SpotLakeService
from repro.lake import LAKE_DIR_NAME, SpotDataLake
from repro.storage import recover
from repro.timeseries import dump_store

SEED = 11
TYPES = 16
ROUNDS = 5
INTERVAL_MINUTES = 180.0
#: two rounds before a UTC midnight, three after it
FIRST = PAPER_WINDOW_START + SECONDS_PER_DAY - 2 * INTERVAL_MINUTES * 60.0

LAKE_CONTENT = "c985baf996e5e2c0933884f97c6c7222e39b45b50d6a32355befbf1bcecd3123"
HOT_STORE = "6989ead1afd45a697f3c50619925a5d37d7300fc92e64b1cf1cede7e7156fd8d"
SEGMENT_FILES = "70e85e9136bf3da86e27dabca7ba36a1dd122c34600aea5c18303f5864dac1f5"


def _store_digest(store, directory):
    dump_store(store, directory)
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _segment_files_digest(data):
    """sha256 over (relative path, sha256 of the bytes) of every
    ``.seg`` file under ``data``, in sorted path order."""
    sha = hashlib.sha256()
    for rel in sorted(p.relative_to(data).as_posix()
                      for p in data.rglob("*.seg")):
        sha.update(rel.encode("utf-8"))
        sha.update(hashlib.sha256((data / rel).read_bytes()).digest())
    return sha.hexdigest()


def test_lake_content_and_recovered_hot_store_are_pinned(tmp_path):
    data = tmp_path / "data"
    cloud = SimulatedCloud(seed=SEED)
    cloud.clock.set(FIRST)
    service = SpotLakeService(ServiceConfig(
        seed=SEED, instance_types=cloud.catalog.instance_type_names[:TYPES],
        data_dir=str(data), checkpoint_every=2, lake=True), cloud=cloud)
    try:
        for _ in range(ROUNDS):
            service.collect_once()
            cloud.clock.advance_minutes(INTERVAL_MINUTES)
        lake = service.archive.lake
        assert lake.compact()["days_compacted"] == 1
        # a closed day compacted; the new day's keyframe, a quiet round
        # and a delta
        assert [(p.kind, p.rows > 0) for p in lake.partitions] == [
            ("day", True), ("round", True), ("round", False),
            ("round", True)]
        live = lake.content_digest()
    finally:
        service.close()
    assert _segment_files_digest(data) == SEGMENT_FILES

    reopened = SpotDataLake(data / LAKE_DIR_NAME)
    try:
        assert reopened.content_digest() == live == LAKE_CONTENT
    finally:
        reopened.close()
    state = recover(data)
    assert state.rounds_committed == ROUNDS
    assert _store_digest(state.store, tmp_path / "dump") == HOT_STORE
