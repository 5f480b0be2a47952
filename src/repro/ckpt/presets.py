"""Convenience constructors for the paper's evaluated configurations.

The evaluation compares four grouping methods (Section 5.1) plus MPICH-VCL
(Section 5.3):

* ``NORM`` — one group only: the original LAM/MPI global coordinated
  checkpoint,
* ``GP1``  — one process per group: uncoordinated checkpointing with message
  logging,
* ``GP4``  — four groups of sequential ranks: an ad-hoc grouping,
* ``GP``   — groups obtained by analysing MPI traces (Algorithm 2),
* ``VCL``  — MPICH-VCL's non-blocking coordinated protocol.

All five return a protocol family object ready to be passed to
:class:`~repro.mpi.runtime.MpiRuntime`.
"""

from __future__ import annotations

from typing import Optional

from repro.ckpt.base import ProtocolConfig
from repro.ckpt.blcr import BlcrModel
from repro.ckpt.chandy_lamport import VclConfig, VclProtocolFamily
from repro.core.groups import GroupSet
from repro.core.protocol import GroupProtocolFamily


def norm_family(
    n_ranks: int,
    config: Optional[ProtocolConfig] = None,
    blcr: Optional[BlcrModel] = None,
    name: Optional[str] = None,
) -> GroupProtocolFamily:
    """NORM: the original LAM/MPI global coordinated checkpoint (one group)."""
    return GroupProtocolFamily(
        GroupSet.single(n_ranks), config=config, blcr=blcr, name=name or "NORM"
    )


def gp1_family(
    n_ranks: int,
    config: Optional[ProtocolConfig] = None,
    blcr: Optional[BlcrModel] = None,
    name: Optional[str] = None,
) -> GroupProtocolFamily:
    """GP1: one process per group — uncoordinated checkpointing with message logging."""
    return GroupProtocolFamily(
        GroupSet.singletons(n_ranks), config=config, blcr=blcr, name=name or "GP1"
    )


def gp4_family(
    n_ranks: int,
    config: Optional[ProtocolConfig] = None,
    blcr: Optional[BlcrModel] = None,
    name: Optional[str] = None,
) -> GroupProtocolFamily:
    """GP4: four groups of sequential process ranks — an ad-hoc grouping."""
    return GroupProtocolFamily(
        GroupSet.contiguous(n_ranks, 4), config=config, blcr=blcr, name=name or "GP4"
    )


def gp_family(
    groups: GroupSet,
    config: Optional[ProtocolConfig] = None,
    blcr: Optional[BlcrModel] = None,
    name: Optional[str] = None,
) -> GroupProtocolFamily:
    """GP: trace-assisted grouping (pass the GroupSet produced by Algorithm 2)."""
    return GroupProtocolFamily(groups, config=config, blcr=blcr, name=name or "GP")


def vcl_family(
    config: Optional[ProtocolConfig] = None,
    vcl_config: Optional[VclConfig] = None,
    blcr: Optional[BlcrModel] = None,
    name: Optional[str] = None,
) -> VclProtocolFamily:
    """VCL: MPICH-VCL's non-blocking coordinated (Chandy–Lamport) protocol."""
    return VclProtocolFamily(config=config, vcl_config=vcl_config, blcr=blcr,
                             name=name or "VCL")
