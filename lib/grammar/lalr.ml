(** LALR(1) parse-table construction.

    The construction is the textbook one used by Copper: build the LR(0)
    canonical collection, then compute LALR(1) lookaheads for kernel
    items by spontaneous generation and propagation (Dragon-book
    algorithm 4.63), and finally derive reduce lookaheads for every
    completed item — including items of epsilon productions.

    Algorithm 4.63 runs one LR(1) closure per kernel item, and another
    per state for the reduce lookaheads.  Here every closure is read off
    {e nonterminal-level closure tables} instead: for each nonterminal
    [B], the nonterminals [C] reachable from [B] by leftmost derivation,
    each with the terminals the derivation chains themselves put after
    [C] ([spont]) and whether [B]'s own lookahead passes through to [C]
    ([pass]: some chain has only nullable tails).  The closure of an item
    [A ::= α · B β] with lookahead [L] then gives [C]'s productions
    exactly [spont ∪ (pass ? FIRST(β) ∪ (nullable β ? L : ∅) : ∅)].
    FIRST and nullability of every item's tail are computed once per
    item, lookaheads propagate along a worklist, and the reduce
    lookaheads of epsilon productions come from the same per-state
    closure sums.  The tables are the ones algorithm 4.63 builds.

    Tables are pure data: the parser driver, the context-aware scanner
    (which needs the {i valid terminal set} of each state) and the modular
    determinism analysis all consume them. *)

module IntSet = Set.Make (Int)
module A = Analysis

(* An LR(0) item is (production index, dot position), packed into one int.
   No production in a real language spec has a RHS longer than 63 symbols. *)
let max_rhs = 64
let item prod dot = (prod * max_rhs) + dot
let item_prod it = it / max_rhs
let item_dot it = it mod max_rhs

type action =
  | Shift of int  (** target state *)
  | Reduce of int  (** production index *)
  | Accept
  | Error

type conflict = {
  c_state : int;
  c_term : int;
  c_actions : action list;  (** the clashing actions (2 or more) *)
}

type t = {
  g : A.t;
  n_states : int;
  kernels : int array array;  (** sorted kernel items per state *)
  action : action array array;  (** [action.(state).(terminal)] *)
  goto : int array array;  (** [goto.(state).(nonterminal)], -1 = none *)
  conflicts : conflict list;
  valid_terms : IntSet.t array;
      (** per state: terminals with a non-[Error] action — the set the
          context-aware scanner is allowed to match in that state *)
}

let pp_item g ppf it =
  let p = g.A.prods.(item_prod it) and dot = item_dot it in
  let lhs = g.A.nt_names.(p.A.ilhs) in
  let parts =
    Array.to_list (Array.mapi (fun i s -> (i, A.sym_name g s)) p.A.irhs)
  in
  let rhs =
    String.concat " "
      (List.concat_map
         (fun (i, s) -> if i = dot then [ "."; s ] else [ s ])
         parts)
  in
  let rhs = if dot = Array.length p.A.irhs then rhs ^ " ." else rhs in
  Fmt.pf ppf "%s ::= %s" lhs rhs

let pp_action g ppf = function
  | Shift s -> Fmt.pf ppf "shift %d" s
  | Reduce p -> (
      match g.A.prods.(p).A.src with
      | Some sp -> Fmt.pf ppf "reduce %s" sp.Cfg.p_name
      | None -> Fmt.pf ppf "reduce $START")
  | Accept -> Fmt.string ppf "accept"
  | Error -> Fmt.string ppf "error"

let pp_conflict g ppf c =
  Fmt.pf ppf "state %d on %s: %a" c.c_state
    g.A.term_names.(c.c_term)
    (Fmt.list ~sep:(Fmt.any " / ") (pp_action g))
    c.c_actions

(* Per production [p] and position [i]: FIRST(rhs[i..]) and whether
   rhs[i..] derives the empty string, for 0 <= i <= |rhs|.  The tail
   after an item's next symbol is position [dot + 1]. *)
let suffixes (g : A.t) =
  let first =
    Array.map
      (fun p -> Array.make (Array.length p.A.irhs + 1) IntSet.empty)
      g.A.prods
  in
  let null =
    Array.map (fun p -> Array.make (Array.length p.A.irhs + 1) true) g.A.prods
  in
  Array.iteri
    (fun pi p ->
      let rhs = p.A.irhs in
      for i = Array.length rhs - 1 downto 0 do
        let code = rhs.(i) in
        if A.is_term g code then begin
          first.(pi).(i) <- IntSet.singleton code;
          null.(pi).(i) <- false
        end
        else begin
          let n = A.nt_of_code g code in
          let nullable = g.A.nullable.(n) in
          first.(pi).(i) <-
            (if nullable then IntSet.union g.A.first.(n) first.(pi).(i + 1)
             else g.A.first.(n));
          null.(pi).(i) <- nullable && null.(pi).(i + 1)
        end
      done)
    g.A.prods;
  (first, null)

(* One nonterminal reachable from the closure's source [B]: its
   productions get lookahead [spont], plus [B]'s own lookahead when
   [pass]. *)
type reach = { nt : int; spont : IntSet.t; pass : bool }

(* [closure_tables g first null] — per nonterminal [B], the nonterminals
   reachable from [B] by leftmost derivation ([B] itself included, with
   [pass = true]), as a least fixpoint over the edges [C ::= D δ]. *)
let closure_tables (g : A.t) first null : reach list array =
  let n = g.A.n_nts in
  let spont = Array.make n IntSet.empty in
  let pass = Array.make n false in
  let reached = Array.make n (-1) in
  Array.init n (fun b ->
      let order = ref [ b ] in
      reached.(b) <- b;
      spont.(b) <- IntSet.empty;
      pass.(b) <- true;
      let work = Queue.create () in
      Queue.add b work;
      while not (Queue.is_empty work) do
        let c = Queue.pop work in
        List.iter
          (fun pi ->
            let rhs = g.A.prods.(pi).A.irhs in
            if Array.length rhs > 0 && not (A.is_term g rhs.(0)) then begin
              let d = A.nt_of_code g rhs.(0) in
              let tail_null = null.(pi).(1) in
              let s =
                if tail_null then IntSet.union first.(pi).(1) spont.(c)
                else first.(pi).(1)
              in
              let p = tail_null && pass.(c) in
              if reached.(d) <> b then begin
                reached.(d) <- b;
                order := d :: !order;
                spont.(d) <- s;
                pass.(d) <- p;
                Queue.add d work
              end
              else if
                (p && not pass.(d)) || not (IntSet.subset s spont.(d))
              then begin
                spont.(d) <- IntSet.union spont.(d) s;
                pass.(d) <- pass.(d) || p;
                Queue.add d work
              end
            end)
          g.A.prods_of.(c)
      done;
      List.rev_map
        (fun c -> { nt = c; spont = spont.(c); pass = pass.(c) })
        !order)

exception Table_error of string

(** [build cfg] constructs the LALR(1) tables for (interned) [cfg].
    Conflicts do not raise — they are recorded in [conflicts] (resolving
    nothing), so the determinism analysis can report them precisely; use
    {!require_deterministic} when a conflict should be fatal.  A conflict
    lists the shift first, then its reduces in production order. *)
let build (cfg : Cfg.t) : t =
  let g = A.intern cfg in
  let prods = g.A.prods in
  let rhs_len pi = Array.length prods.(pi).A.irhs in
  let first, null = suffixes g in
  let closure = closure_tables g first null in
  let n_codes = g.A.n_terms + g.A.n_nts in
  (* --- LR(0) canonical collection ------------------------------------ *)
  (* States are numbered breadth-first; a state's successors are interned
     in ascending symbol-code order. *)
  let state_ids : (int list, int) Hashtbl.t = Hashtbl.create 128 in
  let kernels_rev = ref [] in
  let n_states = ref 0 in
  let transitions = ref [] (* (state, symbol code, target) *) in
  let queue = Queue.create () in
  let intern_state kernel =
    match Hashtbl.find_opt state_ids kernel with
    | Some id -> id
    | None ->
        let id = !n_states in
        incr n_states;
        Hashtbl.add state_ids kernel id;
        kernels_rev := kernel :: !kernels_rev;
        Queue.add (id, kernel) queue;
        id
  in
  let buckets = Array.make n_codes [] in
  let closed = Array.make g.A.n_nts (-1) in
  ignore (intern_state [ item 0 0 ]);
  while not (Queue.is_empty queue) do
    let id, kernel = Queue.pop queue in
    let touched = ref [] in
    let advance it =
      let pi = item_prod it and dot = item_dot it in
      if dot < rhs_len pi then begin
        let code = prods.(pi).A.irhs.(dot) in
        if buckets.(code) = [] then touched := code :: !touched;
        buckets.(code) <- item pi (dot + 1) :: buckets.(code)
      end
    in
    List.iter
      (fun it ->
        advance it;
        let pi = item_prod it and dot = item_dot it in
        if dot < rhs_len pi then
          let code = prods.(pi).A.irhs.(dot) in
          if not (A.is_term g code) then
            List.iter
              (fun r ->
                if closed.(r.nt) <> id then begin
                  closed.(r.nt) <- id;
                  List.iter (fun p -> advance (item p 0)) g.A.prods_of.(r.nt)
                end)
              closure.(A.nt_of_code g code))
      kernel;
    List.iter
      (fun code ->
        let tgt_kernel = List.sort Int.compare buckets.(code) in
        buckets.(code) <- [];
        let tgt = intern_state tgt_kernel in
        transitions := (id, code, tgt) :: !transitions)
      (List.sort Int.compare !touched)
  done;
  let n_states = !n_states in
  let kernels = Array.of_list (List.rev !kernels_rev) |> Array.map Array.of_list in
  let goto_code = Array.init n_states (fun _ -> Array.make n_codes (-1)) in
  List.iter (fun (s, code, t) -> goto_code.(s).(code) <- t) !transitions;
  (* --- LALR(1) lookaheads for kernel items ---------------------------- *)
  let kernel_index state it =
    let k = kernels.(state) in
    let rec go i = if k.(i) = it then i else go (i + 1) in
    go 0
  in
  (* [succ s it]: the target state and kernel index of [it] advanced
     over its next symbol from state [s]. *)
  let succ s it =
    let pi = item_prod it and dot = item_dot it in
    let tgt = goto_code.(s).(prods.(pi).A.irhs.(dot)) in
    (tgt, kernel_index tgt (item pi (dot + 1)))
  in
  let lookaheads =
    Array.map (fun k -> Array.make (Array.length k) IntSet.empty) kernels
  in
  let links = Array.map (fun k -> Array.make (Array.length k) []) kernels in
  (* Per state, each epsilon production in its closure with the closure's
     spontaneous lookahead and the kernel items whose lookahead passes
     through to it. *)
  let eps_items = Array.make n_states [] in
  let spont = Array.make g.A.n_nts IntSet.empty in
  let passing = Array.make g.A.n_nts [] in
  let seen = Array.make g.A.n_nts (-1) in
  for s = 0 to n_states - 1 do
    let touched = ref [] in
    Array.iteri
      (fun ki it ->
        let pi = item_prod it and dot = item_dot it in
        if dot < rhs_len pi then begin
          links.(s).(ki) <- [ succ s it ];
          let code = prods.(pi).A.irhs.(dot) in
          if not (A.is_term g code) then begin
            let tail_first = first.(pi).(dot + 1) in
            let tail_null = null.(pi).(dot + 1) in
            List.iter
              (fun r ->
                if seen.(r.nt) <> s then begin
                  seen.(r.nt) <- s;
                  spont.(r.nt) <- IntSet.empty;
                  passing.(r.nt) <- [];
                  touched := r.nt :: !touched
                end;
                let la =
                  if r.pass then IntSet.union r.spont tail_first else r.spont
                in
                spont.(r.nt) <- IntSet.union spont.(r.nt) la;
                if r.pass && tail_null then
                  passing.(r.nt) <- ki :: passing.(r.nt))
              closure.(A.nt_of_code g code)
          end
        end)
      kernels.(s);
    List.iter
      (fun c ->
        List.iter
          (fun pi ->
            if rhs_len pi = 0 then
              eps_items.(s) <- (pi, spont.(c), passing.(c)) :: eps_items.(s)
            else begin
              let tgt, tki = succ s (item pi 0) in
              lookaheads.(tgt).(tki) <-
                IntSet.union lookaheads.(tgt).(tki) spont.(c);
              List.iter
                (fun ki -> links.(s).(ki) <- (tgt, tki) :: links.(s).(ki))
                passing.(c)
            end)
          g.A.prods_of.(c))
      !touched
  done;
  (* $EOF is the lookahead of the augmented start item. *)
  lookaheads.(0).(0) <- IntSet.add g.A.eof lookaheads.(0).(0);
  (* Propagation: a worklist of kernel items whose lookahead grew. *)
  let queued = Array.map (fun k -> Array.make (Array.length k) true) kernels in
  let work = Queue.create () in
  Array.iteri
    (fun s k -> Array.iteri (fun ki _ -> Queue.add (s, ki) work) k)
    kernels;
  while not (Queue.is_empty work) do
    let s, ki = Queue.pop work in
    queued.(s).(ki) <- false;
    let la = lookaheads.(s).(ki) in
    List.iter
      (fun (t, tki) ->
        let before = lookaheads.(t).(tki) in
        if not (IntSet.subset la before) then begin
          lookaheads.(t).(tki) <- IntSet.union before la;
          if not queued.(t).(tki) then begin
            queued.(t).(tki) <- true;
            Queue.add (t, tki) work
          end
        end)
      links.(s).(ki)
  done;
  (* --- Action/goto tables --------------------------------------------- *)
  let action = Array.init n_states (fun _ -> Array.make g.A.n_terms Error) in
  let goto = Array.init n_states (fun _ -> Array.make g.A.n_nts (-1)) in
  let conflicts = ref [] in
  let set_action state term act =
    match action.(state).(term) with
    | Error -> action.(state).(term) <- act
    | prev when prev = act -> ()
    | prev ->
        (* Record (and keep first action so the parser stays usable). *)
        let existing =
          List.find_opt
            (fun c -> c.c_state = state && c.c_term = term)
            !conflicts
        in
        (match existing with
        | Some c when List.mem act c.c_actions -> ()
        | Some c ->
            conflicts :=
              { c with c_actions = c.c_actions @ [ act ] }
              :: List.filter (fun c' -> c' != c) !conflicts
        | None ->
            conflicts :=
              { c_state = state; c_term = term; c_actions = [ prev; act ] }
              :: !conflicts)
  in
  for state = 0 to n_states - 1 do
    (* Shifts and gotos from LR(0) transitions. *)
    Array.iteri
      (fun code tgt ->
        if tgt >= 0 then
          if A.is_term g code then set_action state code (Shift tgt)
          else goto.(state).(A.nt_of_code g code) <- tgt)
      goto_code.(state);
    (* Reduces: completed kernel items on their own lookaheads, epsilon
       productions on the closure's. *)
    let completed = ref [] in
    Array.iteri
      (fun ki it ->
        if item_dot it = rhs_len (item_prod it) then
          completed := (item_prod it, lookaheads.(state).(ki)) :: !completed)
      kernels.(state);
    List.iter
      (fun (pi, spont, passing) ->
        let la =
          List.fold_left
            (fun acc ki -> IntSet.union acc lookaheads.(state).(ki))
            spont passing
        in
        completed := (pi, la) :: !completed)
      eps_items.(state);
    List.iter
      (fun (pi, la) ->
        IntSet.iter
          (fun t ->
            if pi = 0 then (if t = g.A.eof then set_action state t Accept)
            else set_action state t (Reduce pi))
          la)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) !completed)
  done;
  let valid_terms =
    Array.init n_states (fun s ->
        let acc = ref IntSet.empty in
        Array.iteri
          (fun t a -> if a <> Error then acc := IntSet.add t !acc)
          action.(s);
        !acc)
  in
  {
    g;
    n_states;
    kernels;
    action;
    goto;
    conflicts = List.rev !conflicts;
    valid_terms;
  }

(** [is_lalr1 tbl] — true when the construction found no conflicts. *)
let is_lalr1 tbl = tbl.conflicts = []

(** [require_deterministic tbl] raises {!Table_error} with a rendered
    conflict report unless the table is conflict-free. *)
let require_deterministic tbl =
  if not (is_lalr1 tbl) then
    raise
      (Table_error
         (Fmt.str "grammar %s is not LALR(1):@.%a" tbl.g.A.cfg.Cfg.name
            (Fmt.list ~sep:Fmt.cut (pp_conflict tbl.g))
            tbl.conflicts))
