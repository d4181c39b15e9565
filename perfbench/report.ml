(* What one repetition of a workload reports, and the small statistics the
   harness needs to fold repetitions into medians. *)

type rep = {
  setup_s : float;               (** times are in reference time ({!Calib}) *)
  wall_s : float;
  speed : float;                 (** reference over raw time of the timed phase *)
  e2e : (string * float) list;   (** end-to-end metrics besides set-up/wall *)
  layer : (string * float) list; (** per-layer metrics; empty when untraced *)
  attempted : int;
  failed : int;                  (** operations that did not complete *)
  not_ok : int;
  (** simulated operations that completed with [ok = false]: measured
      protocol unavailability, pinned by the digest, not failures of the run *)
  wrong : int;                   (** outputs an oracle contradicts *)
  digest : int;                  (** hash of the deterministic outputs *)
  lookup_us : float list;        (** single-lookup call latencies, reference µs *)
}

(* An independent generator per (seed, purpose): the workload inputs are a
   function of the seed alone. *)
let stream seed purpose = Rofl_util.Prng.create (Hashtbl.hash (seed, purpose, "perfbench"))

(* ---- order statistics ------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" rule). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* ---- the correctness digest ------------------------------------------------ *)

(* FNV-style mixing over OCaml's 63-bit ints: order-sensitive, allocation
   free, and identical on every 64-bit platform. *)
let mix h v = (h lxor v) * 0x100000001b3
let mix_float h f = mix h (Int64.to_int (Int64.bits_of_float f))
let mix_bool h b = mix h (if b then 1 else 2)
let mix_id h id = mix (mix h (Rofl_idspace.Id.key id)) (Int32.to_int (Rofl_idspace.Id.low32 id))
let digest_seed = 0x2545f4914f6cdd1d

(* ---- GC accounting ---------------------------------------------------------- *)

type gc_mark = { minor : float; major : float; collections : int; worker_minor : int;
                 worker_major : int }

(* OCaml 5 GC counters are per domain: pool workers' allocations are
   tallied separately by [Rofl_util.Pool]. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
    worker_minor = Rofl_util.Pool.worker_minor_words ();
    worker_major = Rofl_util.Pool.worker_major_words ();
  }

let gc_delta a b =
  ( b.minor -. a.minor +. float_of_int (b.worker_minor - a.worker_minor),
    b.major -. a.major +. float_of_int (b.worker_major - a.worker_major),
    b.collections - a.collections )

(* The per-layer lines every traced repetition carries: GC totals, each
   layer's self time, and the ledger's residual against the raw wall time of
   the phase [p0, p1] (calibration probes land in the residual). *)
let ledger_metrics ~p0 ~p1 ~gc0 ~gc1 ~attempted ~failed ~not_ok =
  let acc = Ledger.account ~p0 ~p1 in
  let wall_s = Ledger.secs (p1 - p0) in
  let minor, major, collections = gc_delta gc0 gc1 in
  let self =
    List.map
      (fun l ->
        ( Printf.sprintf "layer.%s.self_s" (Ledger.layer_name l),
          acc.Ledger.self_s.(Ledger.layer_index l) ))
      Ledger.layers
  in
  let summed = Array.fold_left ( +. ) acc.Ledger.runtime_s acc.Ledger.self_s in
  [
    ("gc.minor_words", minor);
    ("gc.major_words", major);
    ("gc.major_collections", float_of_int collections);
    ("layer.runtime.self_s", acc.Ledger.runtime_s);
    ("ledger.residual_ratio", (wall_s -. summed) /. wall_s);
    ("ledger.spans", float_of_int acc.Ledger.spans);
    ("ledger.gc_lost_events", float_of_int acc.Ledger.gc_lost_events);
    ("fail_ratio", float_of_int (failed + not_ok) /. float_of_int (max 1 attempted));
  ]
  @ self
