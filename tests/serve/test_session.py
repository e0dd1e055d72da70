"""Resume checkpoints: every counter a session restores is validated."""

import pytest

from repro.errors import SessionResumeError
from repro.serve.session import ServeSession, config_from_wire

from tests.helpers import FAST

CONFIG = config_from_wire(FAST)


def _checkpoint() -> dict:
    session = ServeSession("s0", CONFIG, resumable=True)
    session.condition.bad_block_count = 2
    session.stats.pushes, session.stats.columns_out = 12, 40
    return session.checkpoint()


def test_resume_restores_the_checkpointed_counters():
    resumed = ServeSession.resume("s1", CONFIG, _checkpoint())
    assert resumed.condition.bad_block_count == 2
    closed = resumed.close()
    assert (closed["pushes"], closed["columns_out"], closed["detections"]) == (12, 40, 0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bad_blocks", -7),
        ("bad_blocks", "3"),
        ("pushes", "12"),
        ("columns_out", -100),
        ("detections", True),
        ("samples_in", 1.5),
        ("shed_requests", None),
    ],
)
def test_resume_refuses_a_counter_that_is_not_a_non_negative_int(field, value):
    checkpoint = _checkpoint()
    if field == "bad_blocks":
        checkpoint[field] = value
    else:
        checkpoint["stats"][field] = value
    with pytest.raises(SessionResumeError, match=field):
        ServeSession.resume("s1", CONFIG, checkpoint)
