import pytest

import record_digests


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
