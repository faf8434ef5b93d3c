"""Media playability of a partially downloaded file.

The paper's §3.6 metric: media formats "allow for partial playback of
content provided the partial information is in sequence", so the playable
fraction of a download is the length of the **in-order prefix** of complete
pieces.  Rarest-first fetching leaves this prefix near zero until almost the
whole file is down (Figure 4(b, c)); mobility-aware fetching keeps it high
(Figure 9(a, b)).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..bittorrent.bitfield import Bitfield
from ..bittorrent.metainfo import Torrent


def playable_prefix_pieces(bitfield: Bitfield) -> int:
    """Number of leading consecutive complete pieces."""
    count = 0
    for index in range(bitfield.size):
        if not bitfield.has(index):
            break
        count += 1
    return count


def playable_bytes(torrent: Torrent, bitfield: Bitfield) -> int:
    """Bytes of in-sequence content from the head of the file."""
    prefix = playable_prefix_pieces(bitfield)
    if prefix == torrent.num_pieces:
        return torrent.total_size
    return prefix * torrent.piece_length


def playable_fraction(torrent: Torrent, bitfield: Bitfield) -> float:
    """Playable bytes as a fraction of the file size, in [0, 1]."""
    return playable_bytes(torrent, bitfield) / torrent.total_size


def downloaded_fraction(torrent: Torrent, bitfield: Bitfield) -> float:
    """Complete-piece bytes as a fraction of the file size."""
    total = sum(torrent.piece_size(i) for i in bitfield.indices())
    return total / torrent.total_size


def playability_curve(
    torrent: Torrent, completion_order: Sequence[int]
) -> List[Tuple[float, float]]:
    """``(downloaded %, playable %)`` after each completed piece.

    ``completion_order`` is the order pieces finished (as recorded by
    :class:`~repro.bittorrent.piece_manager.PieceManager`); the result is
    the paper's playability plot for one run.
    """
    bitfield = Bitfield(torrent.num_pieces)
    curve: List[Tuple[float, float]] = [(0.0, 0.0)]
    for index in completion_order:
        bitfield.set(index)
        curve.append(
            (
                100.0 * downloaded_fraction(torrent, bitfield),
                100.0 * playable_fraction(torrent, bitfield),
            )
        )
    return curve


def playable_percentage_at(
    curve: Sequence[Tuple[float, float]], downloaded_percent: float
) -> float:
    """Interpolate a playability curve at a given downloaded percentage."""
    if not curve:
        return 0.0
    last = 0.0
    for down, play in curve:
        if down > downloaded_percent:
            break
        last = play
    return last


def average_curves(
    curves: Iterable[Sequence[Tuple[float, float]]],
    grid: Sequence[float],
) -> List[Tuple[float, float]]:
    """Average several runs' playability curves on a common grid."""
    curves = list(curves)
    if not curves:
        return [(g, 0.0) for g in grid]
    out: List[Tuple[float, float]] = []
    for g in grid:
        values = [playable_percentage_at(c, g) for c in curves]
        out.append((g, sum(values) / len(values)))
    return out
