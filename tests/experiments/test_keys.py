"""Golden pins for the public result-identity API (repro.experiments.keys).

The cache key is a published content address: the sweep cache and any
external tooling address results by it.  These tests pin the emitted keys
byte-for-byte, so an accidental change to the fingerprint composition (or
to ``RESULTS_VERSION`` handling) fails loudly instead of silently orphaning
every cached result.
"""

import dataclasses
import hashlib

from repro.dvfs.config import DvfsConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.experiments import keys
from repro.gpu.config import table_iii_config
from repro.workloads.suite import shrunken_spec

#: Byte-for-byte golden keys.  If a change is *intentional* (simulator
#: semantics changed), bump RESULTS_VERSION in repro.experiments.keys and
#: re-pin; never re-pin without the bump.
PINNED = {
    ("Stream", 1): "cd2bc0e6c6e44c2cc70bac45",
    ("Stream", 4): "aacd2977396edbda4a95fb6b",
    ("BPROP", 2): "4e749c813031cb0d906a0207",
}
PINNED_CAPPED_STREAM_4 = "5ba1e6193d97289de5b2ea46"
PINNED_DVFS_STREAM_4 = "c97eb090864c1c5e6c65fb69"
PINNED_STREAM_SPEC_HASH = "1253a4ed579b3c2d6ca23d2a"


def _spec(abbr: str):
    return shrunken_spec(abbr, total_ctas=16)


class TestGoldenKeys:
    def test_results_version_is_pinned(self):
        assert keys.RESULTS_VERSION == 4

    def test_cache_keys_are_byte_stable(self):
        for (abbr, gpms), want in PINNED.items():
            got = keys.cache_key(_spec(abbr), table_iii_config(gpms))
            assert got == want, f"{abbr}/{gpms}-GPM key drifted: {got}"

    def test_capped_config_key_is_byte_stable(self):
        config = dataclasses.replace(
            table_iii_config(4), power_cap_watts=150.0
        )
        assert keys.cache_key(_spec("Stream"), config) == (
            PINNED_CAPPED_STREAM_4
        )

    def test_dvfs_config_key_is_byte_stable(self):
        config = dataclasses.replace(
            table_iii_config(4),
            dvfs=DvfsConfig.core_only(K40_VF_CURVE.point_at(562e6)),
        )
        assert keys.cache_key(_spec("Stream"), config) == (
            PINNED_DVFS_STREAM_4
        )

    def test_spec_hash_is_byte_stable(self):
        assert keys.spec_hash(_spec("Stream")) == PINNED_STREAM_SPEC_HASH

    def test_key_is_sha256_of_key_blob(self):
        spec, config = _spec("Stream"), table_iii_config(1)
        blob = keys.key_blob(spec, config)
        assert keys.cache_key(spec, config) == (
            hashlib.sha256(blob.encode()).hexdigest()[:24]
        )


class TestRunnerCompat:
    """The sweep runner re-exports these under its historical names."""

    def test_runner_aliases_are_the_same_functions(self):
        from repro.experiments import runner

        assert runner._cache_key is keys.cache_key
        assert runner._config_fingerprint is keys.config_fingerprint
        assert runner._spec_fingerprint is keys.spec_fingerprint
        assert runner._spec_hash is keys.spec_hash
        assert runner.RESULTS_VERSION is keys.RESULTS_VERSION


class TestSubsystemGating:
    """Optional subsystems join the fingerprint only when configured."""

    def test_plain_config_fingerprint_has_no_optional_sections(self):
        fingerprint = keys.config_fingerprint(table_iii_config(4))
        assert "compression" not in fingerprint
        assert "dvfs" not in fingerprint
        assert "power_cap_watts" not in fingerprint

    def test_cap_changes_the_key(self):
        spec = _spec("Stream")
        plain = table_iii_config(4)
        capped = dataclasses.replace(plain, power_cap_watts=150.0)
        other = dataclasses.replace(plain, power_cap_watts=200.0)
        assert keys.cache_key(spec, plain) != keys.cache_key(spec, capped)
        assert keys.cache_key(spec, capped) != keys.cache_key(spec, other)

    def test_key_is_object_identity_not_object_instance(self):
        spec = _spec("Stream")
        a, b = table_iii_config(4), table_iii_config(4)
        assert a is not b
        assert keys.cache_key(spec, a) == keys.cache_key(spec, b)

    def test_flat_spec_fingerprint_has_no_phases_section(self):
        # Phase schedules are an optional subsystem like caps/DVFS: absent
        # from flat-spec fingerprints so every pre-phase key stays valid.
        fingerprint = keys.spec_fingerprint(_spec("Stream"))
        assert "phases" not in fingerprint

    def test_phase_schedule_changes_the_key(self):
        config = table_iii_config(4)
        flat = shrunken_spec("Stream", total_ctas=16)
        phased = shrunken_spec("LLMServe", total_ctas=16, kernels=1)
        assert "phases" in keys.spec_fingerprint(phased)
        assert keys.cache_key(flat, config) != keys.cache_key(phased, config)
        # Deterministic: an identical schedule maps to the identical key.
        again = shrunken_spec("LLMServe", total_ctas=16, kernels=1)
        assert keys.cache_key(phased, config) == keys.cache_key(again, config)
