(* One flat, in-place structure serves both questions a pointer cache is
   asked: "which entry is least recently used" and "which cached id is
   closest to, but not past, a target".

   Entries live in stable slots (parallel [ids]/[ptrs] arrays).  Recency is
   an intrusive doubly-linked list over slot indices ([prev]/[next], [head]
   the most recently used end, [tail] the eviction end); a freed slot is
   pushed on a free stack threaded through [next].  Ring order is a sorted
   [int array] of [Id.key]s with a parallel array of slots, searched like
   [Ring]'s chunks: a branchless binary search over the immediate keys,
   falling back to [Id.compare] only on key ties.  Inserts and removals
   shift the two sorted int arrays in place (plain int stores, no write
   barrier), so steady-state traffic allocates nothing.  Arrays grow
   geometrically up to the capacity, never preallocated to it: most caches
   of a large sweep stay far below their bound. *)

module Id = Rofl_idspace.Id

type t = {
  mutable cap : int;
  mutable len : int;
  (* slots *)
  mutable ids : Id.t array;
  mutable ptrs : Pointer.t array;
  mutable prev : int array; (* towards [head]; -1 at the head *)
  mutable next : int array; (* towards [tail]; -1 at the tail; free-stack link *)
  mutable head : int;
  mutable tail : int;
  mutable free : int; (* top of the free stack, -1 if empty *)
  mutable used : int; (* slots ever handed out *)
  (* sorted index over [0, len) *)
  mutable keys : int array;
  mutable order : int array; (* slot holding each sorted position *)
}

(* Filler for unused slots, so a freed slot does not pin its old route. *)
let vacant =
  Pointer.make Pointer.Cached ~dst:Id.zero ~dst_router:0 ~route:(Sourceroute.singleton 0)

let create ~capacity =
  if capacity < 0 then invalid_arg "Pointer_cache.create: negative capacity";
  {
    cap = capacity;
    len = 0;
    ids = [||];
    ptrs = [||];
    prev = [||];
    next = [||];
    head = -1;
    tail = -1;
    free = -1;
    used = 0;
    keys = [||];
    order = [||];
  }

let capacity c = c.cap

let length c = c.len

(* ---- slots and recency -------------------------------------------------- *)

(* Only called with every slot in use and [len < cap], so the new size is
   strictly larger and never exceeds the capacity. *)
let grow c =
  let n = Array.length c.ids in
  let n' = min c.cap (max 8 (2 * n)) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  c.ids <- extend c.ids Id.zero;
  c.ptrs <- extend c.ptrs vacant;
  c.prev <- extend c.prev (-1);
  c.next <- extend c.next (-1);
  c.keys <- extend c.keys 0;
  c.order <- extend c.order 0

let alloc_slot c =
  if c.free >= 0 then begin
    let s = c.free in
    c.free <- c.next.(s);
    s
  end
  else begin
    if c.used = Array.length c.ids then grow c;
    let s = c.used in
    c.used <- s + 1;
    s
  end

let release c s =
  c.ids.(s) <- Id.zero;
  c.ptrs.(s) <- vacant;
  c.next.(s) <- c.free;
  c.free <- s

let unlink c s =
  let p = c.prev.(s) and n = c.next.(s) in
  if p >= 0 then c.next.(p) <- n else c.head <- n;
  if n >= 0 then c.prev.(n) <- p else c.tail <- p

let push_front c s =
  c.prev.(s) <- -1;
  c.next.(s) <- c.head;
  if c.head >= 0 then c.prev.(c.head) <- s else c.tail <- s;
  c.head <- s

let touch c s =
  if c.head <> s then begin
    unlink c s;
    push_front c s
  end

(* ---- sorted index -------------------------------------------------------- *)

(* First index in [keys.(0 .. n-1)] holding a key >= k (n if none), n >= 1.
   Branchless as in [Ring]: keys live in [0, 2^62), so the sign of their
   difference is a data-independent mask. *)
let rec klb_rec (keys : int array) k base n =
  if n <= 1 then base + (((Array.unsafe_get keys base - k) asr 62) land 1)
  else begin
    let half = n lsr 1 in
    let m = (Array.unsafe_get keys (base + half - 1) - k) asr 62 in
    klb_rec keys k (base + (half land m)) (n - half)
  end

(* Past the first key >= [kx], skip key ties still strictly below [x]. *)
let rec skip_lt c x kx i =
  if i < c.len && c.keys.(i) = kx && Id.compare c.ids.(c.order.(i)) x < 0 then
    skip_lt c x kx (i + 1)
  else i

(* First sorted position whose id is >= x. *)
let lower_bound c x =
  if c.len = 0 then 0
  else begin
    let kx = Id.key x in
    skip_lt c x kx (klb_rec c.keys kx 0 c.len)
  end

(* In-place shifts of the sorted arrays; callers keep [lo, hi] inside the
   arrays, so the stores skip bounds checks. *)

(* Positions [lo+1 .. hi] move down to [lo .. hi-1]. *)
let shift_down c lo hi =
  let keys = c.keys and order = c.order in
  for j = lo to hi - 1 do
    Array.unsafe_set keys j (Array.unsafe_get keys (j + 1));
    Array.unsafe_set order j (Array.unsafe_get order (j + 1))
  done

(* Positions [lo .. hi-1] move up to [lo+1 .. hi]. *)
let shift_up c lo hi =
  let keys = c.keys and order = c.order in
  for j = hi downto lo + 1 do
    Array.unsafe_set keys j (Array.unsafe_get keys (j - 1));
    Array.unsafe_set order j (Array.unsafe_get order (j - 1))
  done

let index_set c i key s =
  c.keys.(i) <- key;
  c.order.(i) <- s

let index_insert c i key s =
  shift_up c i c.len;
  index_set c i key s;
  c.len <- c.len + 1

(* Drop a live slot from both structures. *)
let remove_slot c s =
  unlink c s;
  shift_down c (lower_bound c c.ids.(s)) (c.len - 1);
  c.len <- c.len - 1;
  release c s

(* Whether sorted position [i] (a [lower_bound] result) holds [x]. *)
let holds c i x = i < c.len && Id.equal c.ids.(c.order.(i)) x

(* ---- cursors ------------------------------------------------------------- *)

module Cursor = struct
  type t = int

  let none = -1

  let is_none i = i < 0

  let equal (a : t) (b : t) = a = b

  let find c x =
    let i = lower_bound c x in
    if holds c i x then i else none

  let lt c x =
    if c.len = 0 then none
    else begin
      let i = lower_bound c x in
      if i > 0 then i - 1 else c.len - 1
    end

  let prev c i = if c.len = 0 then none else if i > 0 then i - 1 else c.len - 1

  let id_at c i = c.ids.(c.order.(i))

  let value_at c i = c.ptrs.(c.order.(i))
end

(* ---- operations ---------------------------------------------------------- *)

let insert c (p : Pointer.t) =
  if c.cap > 0 then begin
    let x = p.dst in
    let i = lower_bound c x in
    if holds c i x then begin
      let s = c.order.(i) in
      c.ptrs.(s) <- p;
      touch c s
    end
    else begin
      let key = Id.key x in
      let s =
        if c.len >= c.cap then begin
          (* Full: the evicted tail's slot takes the new entry, and one
             shift of the sorted entries between the two positions moves
             the tail's sorted position to the new one. *)
          let s = c.tail in
          let q = lower_bound c c.ids.(s) in
          unlink c s;
          if q < i then begin
            shift_down c q (i - 1);
            index_set c (i - 1) key s
          end
          else begin
            shift_up c i q;
            index_set c i key s
          end;
          s
        end
        else begin
          let s = alloc_slot c in
          index_insert c i key s;
          s
        end
      in
      c.ids.(s) <- x;
      c.ptrs.(s) <- p;
      push_front c s
    end
  end

let mem c x = not (Cursor.is_none (Cursor.find c x))

let find c x =
  let i = Cursor.find c x in
  if not (Cursor.is_none i) then touch c c.order.(i);
  i

let best_match c ~cur ~target =
  if c.len = 0 then Cursor.none
  else begin
    (* Exact hit first, else the ring predecessor of target (closest not
       past), accepted only if it improves on cur. *)
    let i = lower_bound c target in
    if holds c i target then begin
      touch c c.order.(i);
      i
    end
    else begin
      let j = if i > 0 then i - 1 else c.len - 1 in
      let s = c.order.(j) in
      if Id.between_incl cur c.ids.(s) target then begin
        touch c s;
        j
      end
      else Cursor.none
    end
  end

let remove c x =
  let i = Cursor.find c x in
  if not (Cursor.is_none i) then remove_slot c c.order.(i)

let drop_if c doomed =
  let rec go s n =
    if s < 0 then n
    else begin
      let nx = c.next.(s) in
      if doomed c.ptrs.(s) then begin
        remove_slot c s;
        go nx (n + 1)
      end
      else go nx n
    end
  in
  go c.head 0

let iter c f =
  let rec go s =
    if s >= 0 then begin
      let nx = c.next.(s) in
      f c.ptrs.(s);
      go nx
    end
  in
  go c.head

let clear c =
  c.len <- 0;
  c.ids <- [||];
  c.ptrs <- [||];
  c.prev <- [||];
  c.next <- [||];
  c.head <- -1;
  c.tail <- -1;
  c.free <- -1;
  c.used <- 0;
  c.keys <- [||];
  c.order <- [||]

let resize c ~capacity =
  if capacity < 0 then invalid_arg "Pointer_cache.resize: negative capacity";
  c.cap <- capacity;
  while c.len > c.cap do
    remove_slot c c.tail
  done

let audit c =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* Sorted index: keys strictly increasing in (key, id) order, each equal
     to its slot's [Id.key]. *)
  for i = 0 to c.len - 1 do
    let x = c.ids.(c.order.(i)) in
    if c.keys.(i) <> Id.key x then
      bad "sorted key at %d does not match %s" i (Id.to_short_string x);
    if
      i > 0
      && (c.keys.(i - 1) > c.keys.(i)
         || (c.keys.(i - 1) = c.keys.(i) && Id.compare c.ids.(c.order.(i - 1)) x >= 0))
    then bad "sorted index not strictly increasing at %d" i
  done;
  (* Recency list: every linked slot sits at its sorted position, holds a
     pointer to its own id, and the list holds exactly the indexed entries.
     The walk is bounded so a corrupted cycle still terminates. *)
  let linked = ref 0 and last = ref (-1) and s = ref c.head in
  while !s >= 0 && !linked <= c.len do
    let slot = !s in
    let x = c.ids.(slot) in
    if c.prev.(slot) <> !last then
      bad "%s has a broken recency back-link" (Id.to_short_string x);
    let i = lower_bound c x in
    if not (i < c.len && c.order.(i) = slot) then
      bad "%s in recency list but not at its sorted position" (Id.to_short_string x);
    if not (Id.equal c.ptrs.(slot).Pointer.dst x) then
      bad "%s bound to a pointer for another id" (Id.to_short_string x);
    incr linked;
    last := slot;
    s := c.next.(slot)
  done;
  if !linked <> c.len then
    bad "recency list holds %d entries, sorted index %d" !linked c.len;
  if !last <> c.tail then bad "recency list does not end at the tail";
  List.rev !problems
