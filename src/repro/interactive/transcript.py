"""Session transcripts: recording, serialisation, and replay.

A front-end (or an experiment) often needs to persist what happened in an
interactive session — which nodes were proposed, how the user answered,
which paths she validated — and to replay it later, e.g. to reproduce a
bug report, to resume a session, or to re-learn with a different learner
configuration without asking the user again.

* :func:`record_session` converts a finished
  :class:`~repro.interactive.session.SessionResult` into a
  :class:`SessionTranscript`;
* :class:`SessionTranscript` serialises to / from JSON;
* :func:`replay_transcript` re-runs the recorded answers through a fresh
  :class:`~repro.interactive.session.InteractiveSession` (via a
  :class:`~repro.interactive.console.TranscriptUser` and a fixed-order
  strategy) and returns the new result, which must agree with the original
  when the graph and learner configuration are unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.exceptions import NoCandidateNodeError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.interactive.session import InteractiveSession, SessionResult
from repro.interactive.strategies import Strategy
from repro.learning.examples import Word

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TranscriptEntry:
    """One recorded interaction."""

    node: Node
    positive: bool
    zooms: int
    validated_word: Optional[Word] = None

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "positive": self.positive,
            "zooms": self.zooms,
            "validated_word": list(self.validated_word) if self.validated_word else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TranscriptEntry":
        word = payload.get("validated_word")
        return cls(
            node=payload["node"],
            positive=bool(payload["positive"]),
            zooms=int(payload.get("zooms", 0)),
            validated_word=tuple(word) if word else None,
        )


@dataclass
class SessionTranscript:
    """A serialisable record of a whole session."""

    graph_name: str
    entries: List[TranscriptEntry] = field(default_factory=list)
    learned_expression: Optional[str] = None
    halted_by: str = ""

    # -- (de)serialisation ------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "graph": self.graph_name,
                "halted_by": self.halted_by,
                "learned": self.learned_expression,
                "entries": [entry.as_dict() for entry in self.entries],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SessionTranscript":
        payload = json.loads(text)
        return cls(
            graph_name=payload.get("graph", "graph"),
            entries=[TranscriptEntry.from_dict(entry) for entry in payload.get("entries", [])],
            learned_expression=payload.get("learned"),
            halted_by=payload.get("halted_by", ""),
        )

    def save(self, path: PathLike) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: PathLike) -> "SessionTranscript":
        return cls.from_json(Path(path).read_text())

    # -- convenience -------------------------------------------------------
    def interaction_count(self) -> int:
        """Number of recorded interactions."""
        return len(self.entries)

    def positive_nodes(self) -> List[Node]:
        """Nodes the user labelled positive, in order."""
        return [entry.node for entry in self.entries if entry.positive]

    def negative_nodes(self) -> List[Node]:
        """Nodes the user labelled negative, in order."""
        return [entry.node for entry in self.entries if not entry.positive]


def record_session(result: SessionResult, *, graph_name: str = "graph") -> SessionTranscript:
    """Build a transcript from a finished session result."""
    entries = [
        TranscriptEntry(
            node=record.node,
            positive=record.positive,
            zooms=record.zooms,
            validated_word=record.validated_word,
        )
        for record in result.records
    ]
    return SessionTranscript(
        graph_name=graph_name,
        entries=entries,
        learned_expression=str(result.learned_query) if result.learned_query else None,
        halted_by=result.halted_by,
    )


class _FixedOrderStrategy(Strategy):
    """Proposes exactly the recorded nodes, in the recorded order."""

    name = "transcript-order"

    def __init__(self, order: Sequence[Node], *, max_path_length: int = 4):
        super().__init__(max_path_length=max_path_length)
        self._queue = list(order)

    def propose(self, graph: LabeledGraph, examples) -> Node:
        while self._queue:
            node = self._queue.pop(0)
            if examples.label_of(node) is None:
                return node
        raise NoCandidateNodeError("transcript exhausted")


class _ReplayUser:
    """Answers session questions from a transcript's per-node record.

    Unlike :class:`~repro.interactive.console.TranscriptUser` (which checks
    an exact question sequence), the replay user is keyed by node, so it
    tolerates the session asking one fewer zoom question than was recorded
    (which happens when the neighbourhood radius cap is reached).
    """

    def __init__(self, transcript: SessionTranscript):
        self._labels = {entry.node: entry.positive for entry in transcript.entries}
        self._zooms = {entry.node: entry.zooms for entry in transcript.entries}
        self._words = {
            entry.node: entry.validated_word
            for entry in transcript.entries
            if entry.validated_word is not None
        }

    def wants_zoom(self, node, neighborhood) -> bool:
        remaining = self._zooms.get(node, 0)
        if remaining > 0:
            self._zooms[node] = remaining - 1
            return True
        return False

    def label(self, node) -> bool:
        if node not in self._labels:
            raise ValueError(f"replay asked about a node absent from the transcript: {node!r}")
        return self._labels[node]

    def validate_path(self, node, tree) -> Optional[Word]:
        word = self._words.get(node)
        if word is not None and tree.contains(word):
            return word
        return word if word is not None else None


def replay_transcript(
    graph: LabeledGraph,
    transcript: SessionTranscript,
    *,
    path_validation: bool = True,
    max_path_length: int = 4,
) -> SessionResult:
    """Re-run a recorded session against ``graph`` and return the new result.

    The replayed session visits the recorded nodes in the recorded order,
    re-applies the recorded labels / zooms / validated words, and re-learns
    from scratch; with an unchanged graph and learner configuration the
    learned query selects the same nodes as the original session's.
    """
    user = _ReplayUser(transcript)
    session = InteractiveSession(
        graph,
        user,
        strategy=_FixedOrderStrategy(
            [entry.node for entry in transcript.entries], max_path_length=max_path_length
        ),
        path_validation=path_validation,
        max_path_length=max_path_length,
        max_interactions=len(transcript.entries),
    )
    return session.run()
