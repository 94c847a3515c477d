(** Modular determinism analysis — the [isComposable] check of §VI-A.

    The guarantee reproduced from the paper (Schwerdfeger & Van Wyk):

    {v
      ∀i.  isLALR(H ∪ Ei) ∧ isComposable(H, Ei)
        ⇒ isLALR(H ∪ {E1, …, En})
    v}

    An extension developer runs this analysis on their extension alone,
    against the host; a programmer who picks only passing extensions gets a
    working, conflict-free scanner and parser for the composed language
    with no knowledge of grammar engineering.

    Conditions checked (a conservative, practical rendering of the
    published analysis; deviations documented in DESIGN.md §6):

    1. {b Determinism}: H ∪ E builds a conflict-free LALR(1) table.
    2. {b Marking terminals}: every {i bridge production} — an E-owned
       production whose LHS is a host nonterminal — must be initiated by a
       terminal owned by E ("a unique initial terminal symbol is needed on
       extension syntax", §VI-A).  A bridge production that instead has an
       E-owned terminal in a later position (an {i infix anchor}, e.g. the
       matrix extension's [x1 :: x2] range operator) is accepted with a
       {e note}: such operator extensions are standard ableC practice but
       carry the weaker guarantee of condition 4 plus the final-composition
       verification the driver always performs.  A bridge production with
       no E-owned terminal at all fails — this is exactly the paper's
       tuples extension, whose initial symbol is the host's ["("].
    3. {b Lexical disjointness}: no E terminal duplicates a host terminal's
       regex at equal priority (overlap is fine — the context-aware
       scanner resolves it — but an exact duplicate is unresolvable).
    4. {b Host-state non-interference}: pair the LR states of H with the
       states of H ∪ E reachable by host-symbol transitions from the start
       state.  On every paired state, every {e existing} host action
       (shift/reduce/accept on a host terminal) must be preserved; E may
       only {e add} actions on its own terminals, or fill host-[Error]
       entries with reduces of host productions (recorded as {e spillage}
       notes, since two extensions' spillage could in principle collide —
       which the final composed-table check catches). *)

module IntSet = Set.Make (Int)
module SS = Set.Make (String)

type violation = { rule : string; detail : string }

type report = {
  extension : string;
  passes : bool;
  violations : violation list;
  notes : violation list;
      (** accepted-with-caveat findings: infix anchors, spillage *)
}

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.rule v.detail

let pp_report ppf r =
  if r.passes then begin
    Fmt.pf ppf "extension %s: isComposable PASSES" r.extension;
    if r.notes <> [] then
      Fmt.pf ppf " (with notes)@.%a"
        (Fmt.list ~sep:Fmt.cut pp_violation)
        r.notes
  end
  else
    Fmt.pf ppf "extension %s: isComposable FAILS@.%a" r.extension
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

let host_nonterminals (host : Cfg.t) = SS.of_list (Cfg.nonterminals host)
let host_terminals (host : Cfg.t) = SS.of_list (Cfg.terminal_names host)

(** Bridge productions: E-owned productions whose LHS belongs to the host. *)
let bridge_productions (host : Cfg.t) (ext : Cfg.t) =
  let hnts = host_nonterminals host in
  List.filter (fun p -> SS.mem p.Cfg.lhs hnts) ext.Cfg.productions

(** [check ?host_table host ext] runs the analysis for one extension
    against the host.  [host_table] is [lazy (Lalr.build host)], for a
    caller that checks several extensions against one host and builds
    its table once.  Never raises for user-level problems — every issue
    becomes a {!violation} (or a note). *)
let check ?host_table (host : Cfg.t) (ext : Cfg.t) : report =
  let violations = ref [] and notes = ref [] in
  let violate rule fmt =
    Format.kasprintf
      (fun detail -> violations := { rule; detail } :: !violations)
      fmt
  in
  let note rule fmt =
    Format.kasprintf (fun detail -> notes := { rule; detail } :: !notes) fmt
  in
  let hterms = host_terminals host in
  let ext_term_names = SS.of_list (Cfg.terminal_names ext) in
  let ext_only_terms = SS.diff ext_term_names hterms in
  (* --- 1. determinism of the pairwise composition --------------------- *)
  let composed_table =
    try
      let composed = Cfg.compose host [ ext ] in
      let tbl = Lalr.build composed in
      if not (Lalr.is_lalr1 tbl) then
        List.iter
          (fun c ->
            violate "determinism" "pairwise composition conflict: %a"
              (Lalr.pp_conflict tbl.Lalr.g) c)
          tbl.Lalr.conflicts;
      Some tbl
    with
    | Cfg.Compose_error msg ->
        violate "composition" "%s" msg;
        None
    | Analysis.Ill_formed msg ->
        violate "well-formedness" "%s" msg;
        None
  in
  (* --- 2. marking terminals / infix anchors --------------------------- *)
  let bridges = bridge_productions host ext in
  let marking = ref SS.empty in
  List.iter
    (fun p ->
      let anchor =
        List.exists
          (function Cfg.T t -> SS.mem t ext_only_terms | Cfg.N _ -> false)
          p.Cfg.rhs
      in
      match p.Cfg.rhs with
      | Cfg.T t :: _ when SS.mem t ext_only_terms ->
          marking := SS.add t !marking
      | _ when anchor ->
          note "infix-anchor"
            "bridge production %s is initiated by host syntax but anchored \
             by an extension terminal; accepted with the weaker \
             non-interference guarantee (condition 4)"
            p.Cfg.p_name
      | Cfg.T t :: _ ->
          violate "marking-terminal"
            "bridge production %s starts with host terminal %s and contains \
             no terminal of its own; extension syntax must be identifiable"
            p.Cfg.p_name t
      | Cfg.N n :: _ ->
          violate "marking-terminal"
            "bridge production %s starts with nonterminal <%s> and contains \
             no terminal of its own"
            p.Cfg.p_name n
      | [] ->
          violate "marking-terminal" "bridge production %s is an epsilon rule"
            p.Cfg.p_name)
    bridges;
  (* Marking terminals may appear only as the first symbol of bridge
     productions (within this extension's own rules they are free). *)
  List.iter
    (fun p ->
      if List.exists (fun b -> b == p) bridges then
        List.iteri
          (fun i sym ->
            match sym with
            | Cfg.T t when SS.mem t !marking && i > 0 ->
                note "marking-terminal"
                  "marking terminal %s reused at position %d of bridge \
                   production %s"
                  t i p.Cfg.p_name
            | _ -> ())
          p.Cfg.rhs)
    ext.Cfg.productions;
  (* --- 3. lexical disjointness ---------------------------------------- *)
  List.iter
    (fun (et : Cfg.terminal) ->
      List.iter
        (fun (ht : Cfg.terminal) ->
          if
            et.Cfg.t_name <> ht.Cfg.t_name
            && et.Cfg.t_regex = ht.Cfg.t_regex
            && et.Cfg.t_prio = ht.Cfg.t_prio
          then
            violate "lexical"
              "extension terminal %s duplicates host terminal %s's regex at \
               equal priority"
              et.Cfg.t_name ht.Cfg.t_name)
        host.Cfg.terminals)
    ext.Cfg.terminals;
  (* --- 4. host-state non-interference ---------------------------------- *)
  (match composed_table with
  | None -> ()
  | Some tc -> (
      try
        let th =
          match host_table with
          | Some t -> Lazy.force t
          | None -> Lalr.build host
        in
        if not (Lalr.is_lalr1 th) then
          violate "host" "host grammar alone is not LALR(1)"
        else begin
          let gh = th.Lalr.g and gc = tc.Lalr.g in
          (* Map host symbol codes to composed codes by name. *)
          let cterm name = Hashtbl.find_opt gc.Analysis.term_id name in
          let cnt name = Hashtbl.find_opt gc.Analysis.nt_id name in
          let pname (g : Analysis.t) pi =
            match g.Analysis.prods.(pi).Analysis.src with
            | Some p -> p.Cfg.p_name
            | None -> "$start"
          in
          let paired = Hashtbl.create 64 in
          let queue = Queue.create () in
          let pair h c =
            match Hashtbl.find_opt paired h with
            | Some c' ->
                if c' <> c then
                  violate "host-state"
                    "host state %d maps to two composed states (%d, %d)" h c' c
            | None ->
                Hashtbl.replace paired h c;
                Queue.add (h, c) queue
          in
          pair 0 0;
          while not (Queue.is_empty queue) do
            let h, c = Queue.pop queue in
            (* host-terminal actions must be preserved *)
            Array.iteri
              (fun tid name ->
                match cterm name with
                | None -> ()
                | Some ctid -> (
                    let ha = th.Lalr.action.(h).(tid) in
                    let ca = tc.Lalr.action.(c).(ctid) in
                    match (ha, ca) with
                    | Lalr.Error, Lalr.Error -> ()
                    | Lalr.Error, Lalr.Reduce pi ->
                        let pn = pname gc pi in
                        let owner_is_host =
                          List.exists
                            (fun (p : Cfg.production) -> p.Cfg.p_name = pn)
                            host.Cfg.productions
                        in
                        if owner_is_host then
                          note "spillage"
                            "host state %d gains lookahead %s (reduce %s); \
                             safe pairwise, re-verified on full composition"
                            h name pn
                        else
                          violate "host-state"
                            "host state %d gains a reduce of extension \
                             production %s on host terminal %s"
                            h pn name
                    | Lalr.Error, Lalr.Shift _ ->
                        note "spillage"
                          "host state %d gains a shift on host terminal %s"
                          h name
                    | Lalr.Shift s1, Lalr.Shift s2 -> pair s1 s2
                    | Lalr.Reduce p1, Lalr.Reduce p2 ->
                        if pname gh p1 <> pname gc p2 then
                          violate "host-state"
                            "host state %d changes reduce on %s: %s became %s"
                            h name (pname gh p1) (pname gc p2)
                    | Lalr.Accept, Lalr.Accept -> ()
                    | _ ->
                        violate "host-state"
                          "host state %d changes its action on host terminal \
                           %s"
                          h name))
              gh.Analysis.term_names;
            (* follow host-nonterminal gotos to extend the pairing *)
            Array.iteri
              (fun nid name ->
                match cnt name with
                | None -> ()
                | Some cnid ->
                    let hg = th.Lalr.goto.(h).(nid) in
                    let cg = tc.Lalr.goto.(c).(cnid) in
                    if hg >= 0 && cg >= 0 then pair hg cg
                    else if hg >= 0 && cg < 0 then
                      violate "host-state"
                        "host state %d loses its goto on <%s>" h name)
              gh.Analysis.nt_names
          done
        end
      with Analysis.Ill_formed msg -> violate "well-formedness" "%s" msg));
  let violations = List.rev !violations in
  {
    extension = ext.Cfg.name;
    passes = violations = [];
    violations;
    notes = List.rev !notes;
  }

(** [check_all host exts] — per-extension reports plus the final
    composition verdict, the workflow of §II: a programmer selects
    extensions, each previously certified alone, and the system composes
    them (the driver re-verifies determinism of the full composition,
    which also covers any spillage notes). *)
let check_all (host : Cfg.t) (exts : Cfg.t list) :
    report list * (Lalr.t, string) result =
  let host_table = lazy (Lalr.build host) in
  let reports = List.map (check ~host_table host) exts in
  let composed =
    try
      let cfg = Cfg.compose host exts in
      let tbl = Lalr.build cfg in
      if Lalr.is_lalr1 tbl then Ok tbl
      else
        Error
          (Fmt.str "%a"
             (Fmt.list ~sep:Fmt.cut (Lalr.pp_conflict tbl.Lalr.g))
             tbl.Lalr.conflicts)
    with
    | Cfg.Compose_error msg -> Error msg
    | Analysis.Ill_formed msg -> Error msg
  in
  (reports, composed)
