(* Golden correctness digests: the hash of each workload's deterministic
   outputs (verdicts, hops, priced latencies, simulated lookup outcomes and
   the executed-event fingerprints) for the default seed 1 and the held-out
   seed 7, at both sizes.  A run on any other seed is checked by the oracles
   and by agreement across its repetitions only.  The churn digests hold at
   any shard and domain count. *)

let table =
  [
    (("static", "full", 1), 0x16707fec94a2fc8a);
    (("static", "full", 7), 0x0bae36c93b67337b);
    (("static", "tiny", 1), 0x4fd54750d1a78448);
    (("static", "tiny", 7), 0x3c5028a69d201d34);
    (("churn", "full", 1), 0x355b6ca8716b8029);
    (("churn", "full", 7), 0x0966743851808d21);
    (("churn", "tiny", 1), 0x4c2f7b93b8b16c71);
    (("churn", "tiny", 7), 0x2976024dc478f11e);
    (("serve", "full", 1), 0x7287630569ad9b5e);
    (("serve", "full", 7), 0x07d62e322cb3f461);
    (("serve", "tiny", 1), 0x3c17aa056d6a8104);
    (("serve", "tiny", 7), 0x3a9bf49bcfa2de3a);
  ]

let lookup ~workload ~size ~seed = List.assoc_opt (workload, size, seed) table
