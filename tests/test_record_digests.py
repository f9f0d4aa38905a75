import pytest

import collapsemc
import record_digests


def test_digests_cover_the_artifact_version():
    # the grid itself runs only on a platform with an entry; on any other,
    # a version bump that did not regenerate the file still shows here
    versions = {entry["artifact_version"] for entry in record_digests.load().values()}
    assert collapsemc.__version__ in versions, (
        f"no entry for artifact version {collapsemc.__version__} in "
        f"{record_digests.DIGEST_FILE}; regenerate it with tests/record_digests.py")


def test_records_match_committed_digests(tmp_path):
    # the grid's records and manifests are byte-stable on a platform whose
    # key is in the digest file; any other platform has nothing to compare
    # against, since the noise is fixed only within one numpy build on one
    # CPU feature set
    key = record_digests.platform_key()
    entry = record_digests.load().get(key)
    if entry is None:
        pytest.skip(f"no committed record digests for platform key {key!r}")
    got = record_digests.run_grid(str(tmp_path))
    assert sorted(got) == sorted(entry["digests"])
    changed = [name for name, digest in got.items() if digest != entry["digests"][name]]
    assert not changed, (f"records or manifests changed on {key}: {changed}; a change "
                         f"that alters them regenerates {record_digests.DIGEST_FILE}")
