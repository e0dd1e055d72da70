"""Wire-protocol round trips and rejection paths.

The protocol's load-bearing promise is bit-exactness: complex samples
and float64 spectral columns must survive encode -> decode unchanged
(Python's float repr round-trips IEEE-754 doubles), including the
non-finite values fault injection produces.
"""

import numpy as np
import pytest

from repro.errors import (
    DeviceFailedError,
    ProtocolError,
    ReproError,
    ServeOverloadError,
)
from repro.runtime.tracker import SpectrogramColumn
from repro.serve import protocol



def _as_sent(wire, packed):
    """``wire`` as a client sends it: the packed string every encoder
    writes, or the plain number list the decoder also accepts."""
    return wire if packed else protocol.unpack_floats(wire).tolist()


class TestFrames:
    def test_encode_decode_roundtrip(self):
        frame = {"type": "ping", "seq": 3, "nested": {"a": [1, 2.5]}}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encoded_frame_is_one_line(self):
        line = protocol.encode_frame({"type": "ping", "text": "a\nb"})
        assert line.endswith(b"\n") and line.count(b"\n") == 1

    @pytest.mark.parametrize(
        "line",
        [b"not json\n", b"[1, 2]\n", b'{"no": "type"}\n', b'{"type": 7}\n'],
    )
    def test_malformed_frames_raise(self, line):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(line)

    def test_oversize_frame_raises(self):
        line = b'{"type": "x", "pad": "' + b"a" * protocol.MAX_FRAME_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_frame(line)

    def test_oversize_check_respects_custom_limit(self):
        line = protocol.encode_frame({"type": "ping", "pad": "a" * 600})
        assert protocol.decode_frame(line, max_bytes=4096)["type"] == "ping"
        with pytest.raises(ProtocolError, match="exceeds 512"):
            protocol.decode_frame(line, max_bytes=512)

    @pytest.mark.parametrize(
        "line",
        [b"\xff\xfe\n", b'{"type": "ping\x80"}\n', b"\xc3\x28\n"],
    )
    def test_non_utf8_frames_draw_a_typed_error(self, line):
        """Bytes that are not UTF-8 must raise ProtocolError, never
        UnicodeDecodeError through the reader loop."""
        with pytest.raises(ProtocolError, match="UTF-8"):
            protocol.decode_frame(line)

    def test_require_field(self):
        assert protocol.require_field({"type": "t", "x": 0}, "x") == 0
        with pytest.raises(ProtocolError, match='missing "x"'):
            protocol.require_field({"type": "t"}, "x")


class TestTrackerCheckpointWire:
    @pytest.mark.parametrize("packed", [True, False])
    def test_checkpoint_roundtrip_is_bit_exact(self, rng, packed):
        from repro.runtime.tracker import TrackerCheckpoint

        buffered = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        buffered[3] = complex(np.nan, np.inf)  # non-finite survives too
        checkpoint = TrackerCheckpoint(
            buffered=buffered,
            next_start=160,
            column_index=7,
            samples_seen=208,
            start_time_s=0.5,
            use_music=True,
        )
        wire = protocol.tracker_checkpoint_to_wire(checkpoint)
        wire["buffered"] = _as_sent(wire["buffered"], packed)
        back = protocol.tracker_checkpoint_from_wire(wire)
        assert np.array_equal(back.buffered, checkpoint.buffered, equal_nan=True)
        assert back.next_start == checkpoint.next_start
        assert back.column_index == checkpoint.column_index
        assert back.samples_seen == checkpoint.samples_seen
        assert back.start_time_s == checkpoint.start_time_s
        assert back.use_music is True

    @pytest.mark.parametrize(
        "payload",
        [None, "x", 42, {}, {"buffered": "!!", "next_start": 0}],
    )
    def test_malformed_checkpoints_raise(self, payload):
        with pytest.raises(ProtocolError):
            protocol.tracker_checkpoint_from_wire(payload)


class TestSamples:
    @pytest.mark.parametrize("packed", [True, False])
    def test_complex_roundtrip_is_bit_exact(self, rng, packed):
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        wire = protocol.encode_samples(samples)
        assert isinstance(wire, str)  # the encoders always pack
        wire = _as_sent(wire, packed)
        # Through actual JSON text, exactly as the socket carries it.
        frame = protocol.decode_frame(
            protocol.encode_frame({"type": "push_blocks", "samples": wire})
        )
        decoded = protocol.decode_samples(frame["samples"])
        assert decoded.dtype == np.complex128
        assert np.array_equal(decoded, samples)

    @pytest.mark.parametrize("packed", [True, False])
    def test_non_finite_samples_survive(self, packed):
        samples = np.array(
            [complex(np.nan, np.nan), complex(np.inf, -np.inf), 1 + 2j]
        )
        frame = protocol.decode_frame(
            protocol.encode_frame(
                {
                    "type": "x",
                    "samples": _as_sent(protocol.encode_samples(samples), packed),
                }
            )
        )
        decoded = protocol.decode_samples(frame["samples"])
        assert np.isnan(decoded[0].real) and np.isnan(decoded[0].imag)
        assert decoded[1] == complex(np.inf, -np.inf)
        assert decoded[2] == 1 + 2j

    def test_packed_floats_roundtrip(self, rng):
        values = rng.standard_normal(181)
        assert np.array_equal(
            protocol.unpack_floats(protocol.pack_floats(values)), values
        )

    @pytest.mark.parametrize("payload", ["not/base64!!", "QUJD"])  # "ABC"
    def test_bad_packed_payloads_raise(self, payload):
        with pytest.raises(ProtocolError):
            protocol.unpack_floats(payload)

    @pytest.mark.parametrize(
        "payload", ["nope", [1.0, 2.0, 3.0], [1.0, "x"], {"re": 1}]
    )
    def test_bad_sample_payloads_raise(self, payload):
        with pytest.raises(ProtocolError):
            protocol.decode_samples(payload)

    def test_encode_rejects_matrices(self):
        with pytest.raises(ValueError):
            protocol.encode_samples(np.zeros((2, 2), dtype=complex))


class TestColumns:
    @pytest.mark.parametrize("packed", [True, False])
    def test_column_roundtrip_is_bit_exact(self, rng, packed):
        column = SpectrogramColumn(
            index=4,
            start_sample=100,
            time_s=0.32,
            power=rng.standard_normal(181),
            num_sources=2,
            estimator="music",
        )
        wire = protocol.column_to_wire(column)
        wire["power"] = _as_sent(wire["power"], packed)
        frame = protocol.decode_frame(protocol.encode_frame({"type": "c", "col": wire}))
        back = protocol.column_from_wire(frame["col"])
        assert back.index == column.index
        assert back.start_sample == column.start_sample
        assert back.time_s == column.time_s
        assert np.array_equal(back.power, column.power)
        assert back.num_sources == column.num_sources
        assert back.estimator == column.estimator

    def test_malformed_column_raises(self):
        with pytest.raises(ProtocolError, match="malformed column"):
            protocol.column_from_wire({"index": 0})


class TestErrors:
    @pytest.mark.parametrize(
        "exc", [ServeOverloadError("full"), DeviceFailedError("dead")]
    )
    def test_error_frames_rethrow_the_taxonomy_class(self, exc):
        frame = protocol.error_frame(exc, session="s1", seq=9)
        assert frame["session"] == "s1" and frame["seq"] == 9
        with pytest.raises(type(exc), match=str(exc)):
            protocol.raise_wire_error(frame)

    def test_foreign_exceptions_degrade_to_reproerror(self):
        frame = protocol.error_frame(RuntimeError("oops"))
        assert frame["error"] == "ReproError"

    def test_unknown_class_names_degrade_to_reproerror(self):
        with pytest.raises(ReproError, match="mystery"):
            protocol.raise_wire_error({"type": "error", "error": "NoSuch", "message": "mystery"})

    def test_non_taxonomy_names_are_not_instantiated(self):
        # A frame naming some repro.errors attribute that is not an
        # exception class must not be called.
        with pytest.raises(ReproError):
            protocol.raise_wire_error({"type": "error", "error": "annotations", "message": "m"})
