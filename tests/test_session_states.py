"""Stateful test of one challenge session: a Challenger and a Responder driven
with good frames, junk, replays and calls out of phase, in any order.

It checks what the two classes' docstrings promise: phases only move
forward; a refused frame raises ProtocolError and changes nothing; the
challenger accepts if and only if the response holds the dynamic section of
its own copy under its pepper, so an honest responder is accepted exactly
when the two copies match.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from ash.errors import ProtocolError
from ash.protocol import (
    Challenger,
    FrameType,
    Phase,
    ProtocolFrame,
    Responder,
    verdict_accepted,
)
from ash.variants import ASH1, ASH2

from oracle import oracle_ash1, oracle_ash2

ORACLES = {ASH1.name: oracle_ash1, ASH2.name: oracle_ash2}
RANKS = {Phase.IDLE: 0, Phase.AWAITING_CHALLENGE: 0, Phase.AWAITING_RESPONSE: 1, Phase.DONE: 2}

# Payload sizes around every size a frame can rightly carry in either variant.
SIZES = [0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129]


@st.composite
def junk_frames(draw):
    """A frame of any type, given as a member or a bare int, of any nearby size."""
    frame_type = draw(st.sampled_from(list(FrameType)) | st.integers(1, 4))
    size = draw(st.sampled_from(SIZES))
    return ProtocolFrame(frame_type, draw(st.binary(min_size=size, max_size=size)))


def _oracle_section(variant, message, pepper):
    digest = ORACLES[variant.name](message, pepper)
    return digest[variant.section_size : 2 * variant.section_size]


class ChallengeSession(RuleBasedStateMachine):
    frames = Bundle("frames")

    @initialize(
        variant=st.sampled_from([ASH1, ASH2]),
        mine=st.binary(max_size=300),
        other=st.binary(max_size=300),
        same=st.booleans(),
    )
    def start(self, variant, mine, other, same):
        self.variant = variant
        self.mine = mine
        self.theirs = mine if same else other
        self.challenger = Challenger(variant)
        self.responder = Responder(variant)
        self.ranks = {self.challenger: 0, self.responder: 0}
        # the frames each side sent, to deliver in order; and the pepper the
        # responder answered, if it did
        self.challenge = self.response = self.answered = None

    def _refused(self, machine, call):
        before = dict(vars(machine))
        try:
            call()
        except ProtocolError:
            assert vars(machine) == before
        else:
            raise AssertionError("a call out of phase or a frame of the wrong kind went through")

    @rule(target=frames)
    def issue(self):
        if self.challenger.phase is not Phase.IDLE:
            self._refused(self.challenger, self.challenger.issue)
            return multiple()
        frame = self.challenger.issue()
        assert frame.frame_type is FrameType.CHALLENGE
        assert frame.payload == self.challenger.pepper
        assert len(frame.payload) == self.variant.pepper_size
        assert self.challenger.phase is Phase.AWAITING_RESPONSE
        self.challenge = frame
        return frame

    def _answer(self, frame):
        fits = (
            self.responder.phase is Phase.AWAITING_CHALLENGE
            and frame.frame_type is FrameType.CHALLENGE
            and len(frame.payload) == self.variant.pepper_size
        )
        if not fits:
            self._refused(self.responder, lambda: self.responder.answer(frame, self.theirs))
            return frame
        response = self.responder.answer(frame, self.theirs)
        assert response.frame_type is FrameType.RESPONSE
        assert response.payload == _oracle_section(self.variant, self.theirs, frame.payload)
        assert self.responder.phase is Phase.DONE
        self.answered = frame.payload
        self.response = response
        return response

    @precondition(lambda self: self.challenge is not None)
    @rule(target=frames)
    def deliver_the_challenge(self):
        return self._answer(self.challenge)

    @rule(target=frames, frame=frames)
    def answer_a_sent_frame(self, frame):
        return self._answer(frame)

    @rule(target=frames, frame=junk_frames())
    def answer_junk(self, frame):
        return self._answer(frame)

    def _check(self, frame):
        fits = (
            self.challenger.phase is Phase.AWAITING_RESPONSE
            and frame.frame_type is FrameType.RESPONSE
            and len(frame.payload) == self.variant.section_size
        )
        if not fits:
            self._refused(self.challenger, lambda: self.challenger.check(frame, self.mine))
            return frame
        pepper = self.challenger.pepper
        verdict = self.challenger.check(frame, self.mine)
        expected = frame.payload == _oracle_section(self.variant, self.mine, pepper)
        assert self.challenger.accepted is expected
        if self.answered == pepper and frame.payload == _oracle_section(
            self.variant, self.theirs, pepper
        ):
            # the honest answer to this very challenge
            assert self.challenger.accepted is (self.theirs == self.mine)
        assert verdict_accepted(verdict) is expected
        assert self.challenger.phase is Phase.DONE
        return verdict

    @precondition(lambda self: self.response is not None)
    @rule(target=frames)
    def deliver_the_response(self):
        return self._check(self.response)

    @rule(target=frames, frame=frames)
    def check_a_sent_frame(self, frame):
        return self._check(frame)

    @rule(target=frames, frame=junk_frames())
    def check_junk(self, frame):
        return self._check(frame)

    @rule(target=frames, payload=st.binary(min_size=64, max_size=64))
    def check_a_forged_response(self, payload):
        return self._check(ProtocolFrame(FrameType.RESPONSE, payload[: self.variant.section_size]))

    @precondition(lambda self: self.challenger.phase is Phase.AWAITING_RESPONSE)
    @rule(target=frames, byte=st.sampled_from([0, -1]) | st.integers(0, 63), bit=st.integers(0, 7))
    def check_a_near_miss(self, byte, bit):
        # the right section for the challenger's own copy, one bit off; the
        # first and last bytes come up more often than the rest
        section = bytearray(_oracle_section(self.variant, self.mine, self.challenge.payload))
        section[byte % len(section)] ^= 1 << bit
        return self._check(ProtocolFrame(FrameType.RESPONSE, bytes(section)))

    @invariant()
    def phases_only_move_forward(self):
        for machine, rank in self.ranks.items():
            now = RANKS[machine.phase]
            assert now >= rank
            self.ranks[machine] = now


ChallengeSession.TestCase.settings = settings(
    max_examples=100, stateful_step_count=12, deadline=None
)
TestChallengeSession = ChallengeSession.TestCase
