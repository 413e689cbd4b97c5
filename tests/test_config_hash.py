"""The canonical config hasher: the result cache's correctness keystone.

The v1 digest (``json.dumps(..., default=str)``) had three cache-key
bugs: tuples and lists collided, ``NaN`` serialized as non-RFC JSON,
and arbitrary objects were hashed through ``str()`` — reprs with memory
addresses, so the "same" config hashed differently run to run.  v2 is a
strict type-tagged canonicalizer; these tests pin its invariants.
"""

import json
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.manifest import (
    CONFIG_HASH_VERSION,
    build_manifest,
    canonical_config_bytes,
    config_hash,
)


class TestKeyOrderInvariance:
    def test_top_level(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_nested(self):
        left = {"outer": {"x": [1, 2], "y": {"p": 1, "q": 2}}, "z": 3}
        right = {"z": 3, "outer": {"y": {"q": 2, "p": 1}, "x": [1, 2]}}
        assert config_hash(left) == config_hash(right)

    def test_values_still_matter(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert config_hash({"a": 1}) != config_hash({"b": 1})


class TestTypeTagging:
    def test_tuple_differs_from_list(self):
        # A plain json.dumps digest collides here: both print as [1, 2].
        assert config_hash({"k": (1, 2)}) != config_hash({"k": [1, 2]})

    def test_bool_differs_from_int(self):
        assert config_hash({"k": True}) != config_hash({"k": 1})
        assert config_hash({"k": False}) != config_hash({"k": 0})

    def test_int_differs_from_float(self):
        assert config_hash({"k": 1}) != config_hash({"k": 1.0})

    def test_str_differs_from_number(self):
        assert config_hash({"k": "1"}) != config_hash({"k": 1})

    def test_none_is_hashable(self):
        assert config_hash({"k": None}) == config_hash({"k": None})
        assert config_hash({"k": None}) != config_hash({"k": 0})

    def test_empty_containers_distinct(self):
        assert config_hash({"k": []}) != config_hash({"k": {}})
        assert config_hash({"k": []}) != config_hash({"k": ()})


class TestRejection:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(ConfigError, match="non-finite"):
            config_hash({"k": bad})

    def test_nested_nan_names_the_path(self):
        with pytest.raises(ConfigError, match=r"\$\.outer\.rates\[1\]"):
            config_hash({"outer": {"rates": [1.0, float("nan")]}})

    def test_arbitrary_objects_rejected(self):
        class Opaque:
            pass

        with pytest.raises(ConfigError, match="no canonical form"):
            config_hash({"k": Opaque()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigError, match="string keys"):
            config_hash({"k": {1: "a"}})


class TestV1Compatibility:
    def test_default_is_v2(self):
        config = {"a": [1, 2.5, "x"], "b": {"c": None}}
        canonical = canonical_config_bytes(config)
        assert canonical.startswith(b"repro-config-v2\x00")
        assert config_hash(config) == hashlib.sha256(canonical).hexdigest()

    def test_manifest_stamps_hash_version(self):
        manifest = build_manifest({"algorithm": "dctcp"})
        assert manifest["config_hash"] == config_hash({"algorithm": "dctcp"})
        assert manifest["config_hash_version"] == CONFIG_HASH_VERSION == 2


# -- property tests -------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_configs = st.dictionaries(
    st.text(max_size=10),
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=6,
)


class TestProperties:
    @given(_configs)
    @settings(max_examples=60, deadline=None)
    def test_hash_is_deterministic_and_reorderable(self, config):
        digest = config_hash(config)
        assert digest == config_hash(config)
        reordered = dict(reversed(list(config.items())))
        assert config_hash(reordered) == digest

    @given(_configs)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_preserves_hash(self, config):
        """Anything that survives a JSON round trip hashes identically
        after it — the property the HTTP cache path relies on."""
        round_tripped = json.loads(json.dumps(config))
        assert config_hash(round_tripped) == config_hash(config)

    @given(_configs, _configs)
    @settings(max_examples=60, deadline=None)
    def test_distinct_configs_distinct_hashes(self, left, right):
        if left != right:
            assert config_hash(left) != config_hash(right)

    @given(_configs)
    @settings(max_examples=30, deadline=None)
    def test_canonical_bytes_match_hash(self, config):
        assert (
            hashlib.sha256(canonical_config_bytes(config)).hexdigest()
            == config_hash(config)
        )
