"""Jupiter protocols: CSS, CSCW, classic buffer-based, broken, and dCSS.

* :mod:`repro.jupiter.nary` — the n-ary ordered state-space and
  Algorithm 1 (Section 6.1–6.2);
* :mod:`repro.jupiter.two_dim` — the 2D state-spaces (DSS) of the CSCW
  protocol (Section 5.1);
* :mod:`repro.jupiter.css` — the CSS protocol (Section 6);
* :mod:`repro.jupiter.cscw` — the CSCW protocol (Section 5);
* :mod:`repro.jupiter.classic` — the optimised buffer implementation in
  the style of the original Jupiter system (no explicit state-spaces);
* :mod:`repro.jupiter.broken` — a deliberately incorrect OT protocol
  used as the running counterexample (Example 8.1 / Figure 8);
* :mod:`repro.jupiter.dcss` + :mod:`repro.jupiter.peer_cluster` — the
  decentralised CSS extension sketched in the paper's §10 future work
  (Lamport-order serialisation, no server);
* :mod:`repro.jupiter.cluster` — schedule-driven execution of a
  client/server system with FIFO channels, recording executions.
"""

from repro._lazy import lazy_exports

#: submodule -> the public names it defines, imported on first use
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "broken": "BrokenClient BrokenServer",
        "classic": "ClassicClient ClassicServer",
        "client_core": "ClientCore",
        "cluster": "Cluster make_cluster",
        "cscw": "CscwClient CscwServer",
        "css": "CssClient CssServer",
        "dcss": "DcssPeer LamportOrderOracle PeerAck PeerOperation",
        "peer_cluster": "PeerCluster",
        "nary": "NaryStateSpace",
        "ordering": "ClientOrderOracle ServerOrderOracle",
        "replication": "Replica",
        "two_dim": "Dimension TwoDimStateSpace",
    },
)
