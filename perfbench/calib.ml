(* The benchmark's clock: elapsed time at reference machine speed.

   The host this benchmark runs on is shared, and its neighbours slow it
   down in two ways that come and go within a second and drift over
   minutes: they compete for the core (a register-only loop takes 1x to 2x
   its best time) and for the caches and memory (a dependent load that
   misses the private caches takes 1x to 3x its best time).  Raw medians of
   two runs minutes apart therefore differ by more than any useful
   regression bound.

   So the workloads call {!tick} between operations.  Every [period_ns] it
   runs two short probes that use none of the repository's code and times
   them: a fixed integer loop (core speed) and a fixed pointer chase over a
   buffer larger than the private caches (memory speed).  Each probe's
   slowdown is its median time among the last [window] probes over its
   reference time; the median keeps a single preempted probe from bending
   the clock.  Until the next probe, elapsed wall time is divided by
   [core_slowdown ** c *. memory_slowdown ** m], so {!clock} advances at
   reference speed whatever the neighbours do.  The exponents [(c, m)] are
   the workload's measured elasticities, passed to {!start}: regressing
   the log raw time of each repetition on the log probe times over 60-120
   repetitions per workload gave 0.54-0.78 for the core probe and
   1.05-1.32 for the memory probe on all three workloads (a repetition
   slows more than either probe, since its working set also loses cache to
   the neighbours).  Exponents 0.6 and 1.2 cut the spread of repetition
   times within a run from 0.18-0.40 raw to 0.04-0.08 (interquartile range
   over median).  Across runs 45 minutes apart [churn] follows the memory
   probe less (see its [exponents]).  Probe time itself never enters
   {!clock}.  Calls between two ticks convert their raw duration with
   {!us}. *)

let period_ns = 2_000_000
let window = 8

(* [static] and [serve]: the within-run fit above.  Over six runs of each
   within an hour, no other pair tried did clearly better (log standard
   deviation of the run medians 0.035 and 0.029; best other pair 0.038 and
   0.022). *)
let default_exponents = (0.6, 1.2)

let core_exp = ref 1.0
let mem_exp = ref 1.0

let int_iters = 20_000
let int_reference_ns = 20_000.0

(* A single random cycle through [chase_lines] cache lines (8 MB, beyond
   the 2 MB private L2), fixed at start-up, outside the OCaml heap so the
   GC never scans it. *)
let chase_lines = 8 * 1024 * 1024 / 64
let chase_steps = 64
let chase_reference_ns = 20_000.0

let chase_buf =
  let open Bigarray in
  let perm = Array.init chase_lines (fun i -> i) in
  let st = Random.State.make [| 1239 |] in
  for i = chase_lines - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let a = Array1.create int c_layout (chase_lines * 8) in
  Array1.fill a 0;
  for i = 0 to chase_lines - 1 do
    a.{perm.(i) * 8} <- perm.((i + 1) mod chase_lines) * 8
  done;
  a

let chase_pos = ref 0

let int_probes = Array.make window int_reference_ns
let chase_probes = Array.make window chase_reference_ns
let n_probes = ref 0

let last = ref 0          (* raw end of the latest probe *)
let acc = ref 0.0         (* reference-time ns up to [last] *)
let factor = ref 1.0      (* reference over current time *)
let raw_acc = ref 0       (* raw ns up to [last], probes excluded *)

(* Median of a window, by insertion sort into a scratch array: probes run
   inside the timed phase, so they must not allocate. *)
let sorted = Array.make window 0.0

let median_of (a : float array) =
  for i = 0 to window - 1 do
    let v = a.(i) in
    let j = ref i in
    while !j > 0 && sorted.(!j - 1) > v do
      sorted.(!j) <- sorted.(!j - 1);
      decr j
    done;
    sorted.(!j) <- v
  done;
  0.5 *. (sorted.((window - 1) / 2) +. sorted.(window / 2))

let probe () =
  let t = Ledger.now () in
  acc := !acc +. (float_of_int (t - !last) *. !factor);
  raw_acc := !raw_acc + (t - !last);
  let s = ref 0 in
  for i = 0 to Sys.opaque_identity int_iters do
    s := !s + (i lxor (i lsr 3))
  done;
  ignore (Sys.opaque_identity !s);
  let t1 = Ledger.now () in
  let p = ref !chase_pos in
  for _ = 1 to chase_steps do
    p := Bigarray.Array1.unsafe_get chase_buf !p
  done;
  chase_pos := Sys.opaque_identity !p;
  let t2 = Ledger.now () in
  let k = !n_probes mod window in
  int_probes.(k) <- float_of_int (t1 - t);
  chase_probes.(k) <- float_of_int (t2 - t1);
  incr n_probes;
  factor :=
    ((int_reference_ns /. median_of int_probes) ** !core_exp)
    *. ((chase_reference_ns /. median_of chase_probes) ** !mem_exp);
  last := t2

(* Call between operations; probes at most once per [period_ns]. *)
let tick () = if Ledger.now () - !last >= period_ns then probe ()

(* Set the workload's exponents and re-seed the speed estimate with a
   window of fresh probes (the clocks keep counting; callers take
   differences). *)
let start (c, m) =
  core_exp := c;
  mem_exp := m;
  last := Ledger.now ();
  for _ = 1 to window do
    probe ()
  done

(* Reference-time nanoseconds. *)
let clock () = !acc +. (float_of_int (Ledger.now () - !last) *. !factor)

(* Raw wall nanoseconds, probes excluded. *)
let raw_clock () = !raw_acc + (Ledger.now () - !last)

(* A raw duration measured between two ticks, in reference microseconds. *)
let us dt = float_of_int dt *. !factor *. 1e-3

let secs ns = ns *. 1e-9
