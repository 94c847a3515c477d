(** The matrix extension's CIR passes: with-loop fusion (§III-A5),
    slice-copy elimination (§III-A5) and auto-parallelization (§III-C).

    Each pass consumes the {!Sites} annotations the baseline {!Lower}
    left behind.  A pass runs even when disabled: splicing its sites away
    and reporting the Skipped/Missed decision is also its job, so a
    completed pipeline leaves no matrix sites in the program. *)

open Cir.Ir
module R = Support.Remark

(* [rewrite_sites] cannot rewrite uses outside the site it is visiting,
   so passes that redirect a name (fusion: copy→result; identity-slice
   aliasing: slice→base) collect the renames and apply them to the whole
   program afterwards — gensym names are program-unique, so global
   substitution is safe. *)
let apply_substs substs p =
  List.fold_left
    (fun p (from_, to_) -> Cir.Pass.subst_in_program from_ (Var to_) p)
    p substs

(** With-loop fusion: the result of a with-loop feeds its consumer
    directly instead of being evaluated into a temporary that is then
    copied (the library-style baseline the payload holds). *)
let fuse : Cir.Pass.t =
  {
    Cir.Pass.name = "fuse";
    default_on = true;
    managed_snapshot = true;
    run =
      (fun _ctx ~enabled p ->
        let substs = ref [] in
        let p =
          Cir.Pass.rewrite_sites
            (fun site payload ->
              match site with
              | Sites.FuseCopy { result; copy; span } ->
                  if enabled then begin
                    R.emit ~pass:"fuse" ~kind:R.Applied ~span
                      "with-loop result feeds its consumer directly: no \
                       temporary copy";
                    Support.Telemetry.bump Lower.c_fused;
                    substs := (copy, result) :: !substs;
                    Some []
                  end
                  else begin
                    R.emit ~pass:"fuse" ~kind:R.Missed ~span
                      ~details:
                        [
                          ( "blocking",
                            "library-style evaluation requested (--no-fuse)" );
                        ]
                      "with-loop paid a library-style result copy (fusion \
                       disabled)";
                    Support.Telemetry.bump Lower.c_library_copies;
                    Some payload
                  end
              | _ -> None)
            p
        in
        apply_substs !substs p);
  }

(* Redirect each eliminated slice's reads to its base, over the slice
   variable's scope: [elims] maps the dropped copy's temporary to the
   in-place facts.  The declaration [s = tmp] drops (its scope starts
   there), as do the releases of [s]; element reads [s[k]] read the base
   at [k] in the free dimension, and [dimSize(s, 0)] is the base's
   extent there — the only uses the verdict admits (a function holding
   a transform script, whose vectorizer could rewrite reads, never gets
   one).  [Located] and [Site] wrappers are not scopes. *)
let read_in_place elims (p : program) : program =
  let redirect env e =
    match e with
    | MGetFlat (Var n, k) -> (
        match List.assoc_opt n env with
        | Some ((ip : Sites.inplace), base) ->
            let before = List.filteri (fun d _ -> d < ip.free) ip.fixed
            and after = List.filteri (fun d _ -> d >= ip.free) ip.fixed in
            MGetFlat
              ( Var base,
                Lower.flat_offset
                  (Lower.dims_of base (List.length ip.fixed + 1))
                  (before @ (k :: after)) )
        | None -> e)
    | MDim (Var n, Int 0) -> (
        match List.assoc_opt n env with
        | Some (ip, base) -> MDim (Var base, Int ip.free)
        | None -> e)
    | e -> e
  in
  let rec block env = function
    | [] -> ([], env)
    | s :: rest ->
        let s, env = stmt env s in
        let rest, env = block env rest in
        (s @ rest, env)
  and scoped env b = fst (block env b)
  and stmt env s =
    let re = map_expr (redirect env) in
    match s with
    | Decl (_, n, Some (Var tmp)) when List.mem_assoc tmp elims ->
        ([], (n, List.assoc tmp elims) :: env)
    | RcDec (Var n) when List.mem_assoc n env -> ([], env)
    | Located (sp, b) -> (
        match block env b with
        | [], env -> ([], env)
        | b, env -> ([ Located (sp, b) ], env))
    | Site (site, b) ->
        let b, env = block env b in
        ([ Site (site, b) ], env)
    | Block b -> ([ Block (scoped env b) ], env)
    | If (c, a, b) -> ([ If (re c, scoped env a, scoped env b) ], env)
    | While (c, b) -> ([ While (re c, scoped env b) ], env)
    | For l -> ([ For { l with bound = re l.bound; body = scoped env l.body } ], env)
    | ParFor l ->
        ([ ParFor { l with bound = re l.bound; body = scoped env l.body } ], env)
    | s -> ([ map_stmt (redirect env) Fun.id s ], env)
  in
  if elims = [] then p
  else
    {
      p with
      funcs = List.map (fun fn -> { fn with f_body = scoped [] fn.f_body }) p.funcs;
    }

(** Slice-copy elimination (§III-A5), two rewrites of a [SliceAlias]
    site whose lowering-time analysis proved them observation-free:
    - a declared slice with one [:] is never copied: its reads go to the
      base in place (the Fig 1 → Fig 3 rewrite);
    - an identity slice [m[:, …, :]] aliases its base (retaining it)
      instead of allocating and copying every element. *)
let copy_elim : Cir.Pass.t =
  {
    Cir.Pass.name = "copy-elim";
    default_on = true;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        let substs = ref [] and elims = ref [] in
        let p =
          Cir.Pass.rewrite_sites
            (fun site payload ->
              match site with
              | Sites.SliceAlias
                  { base; slice; identity; safe; why; inplace; span } -> (
                  match inplace with
                  | Some ({ blocked = None; _ } as ip) when enabled ->
                      R.emit ~pass:"copy-elim" ~kind:R.Applied ~span:ip.decl
                        ~details:[ ("slice", ip.var) ]
                        "slice copy '%s' eliminated: the fold reads the base \
                         matrix in place and the dead slice declaration was \
                         dropped"
                        ip.var;
                      elims := (slice, (ip, base)) :: !elims;
                      Some []
                  | _ when enabled && identity && safe ->
                      R.emit ~pass:"copy-elim" ~kind:R.Applied ~span
                        ~details:[ ("alias", why) ]
                        "identity slice aliased to its base: copy elided";
                      Support.Telemetry.bump Lower.c_identity_slices;
                      substs := (slice, base) :: !substs;
                      Some (if ctx.Cir.Pass.rc then [ RcInc (Var base) ] else [])
                  | _ ->
                      (match inplace with
                      | Some ip when not enabled ->
                          R.emit ~pass:"copy-elim" ~kind:R.Skipped ~span:ip.decl
                            ~details:[ ("slice", ip.var) ]
                            "copy elimination disabled: slice '%s' allocates \
                             a copy"
                            ip.var
                      | Some { var; decl; blocked = Some (blocker, reason); _ }
                        ->
                          R.emit ~pass:"copy-elim" ~kind:R.Missed ~span:decl
                            ~details:
                              (("slice", var)
                              :: Option.fold ~none:[]
                                   ~some:(fun v -> [ ("blocking", v) ])
                                   blocker)
                            "slice copy '%s' kept: %s" var reason
                      | _ when identity && not enabled ->
                          R.emit ~pass:"copy-elim" ~kind:R.Skipped ~span
                            "copy elimination disabled: identity slice \
                             allocates a copy"
                      | _ when identity ->
                          R.emit ~pass:"copy-elim" ~kind:R.Missed ~span
                            ~details:[ ("alias", why) ]
                            "identity slice kept its copy: %s" why
                      | _ ->
                          R.emit ~pass:"copy-elim" ~kind:R.Missed ~span
                            "slice allocates a copy (selection is not the \
                             whole matrix, so the buffer cannot be aliased)");
                      Support.Telemetry.bump Lower.c_slice_copies;
                      Some payload)
              | _ -> None)
            p
        in
        read_in_place !elims (apply_substs !substs p));
  }

(** Auto-parallelization: promote recognised sequential loop shapes to
    [ParFor] regions (§III-C).  Folds never promote — every iteration
    updates the single accumulator. *)
let auto_par : Cir.Pass.t =
  {
    Cir.Pass.name = "auto-par";
    default_on = false;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        if enabled then ctx.Cir.Pass.auto_par_ran <- true;
        Cir.Pass.rewrite_sites
          (fun site payload ->
            match site with
            | Sites.AutoPar { kind; span } -> (
                let promote () =
                  match payload with
                  | [ For l ] -> [ ParFor l ]
                  | _ -> payload
                in
                match kind with
                | Sites.Elemwise ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted elementwise loop to a parallel region \
                         (each index writes one output element)";
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: elementwise loop \
                         stays sequential";
                      Some payload
                    end
                | Sites.MatmulRow ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted matrix-multiplication row loop to a \
                         parallel region";
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: \
                         matrix-multiplication row loop stays sequential";
                      Some payload
                    end
                | Sites.WithGen ->
                    if not enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: with-loop nest \
                         stays sequential";
                      Some payload
                    end
                    else (
                      match payload with
                      | [ For l ] ->
                          R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                            "promoted with-loop's outermost generator loop \
                             to a parallel region";
                          Some [ ParFor l ]
                      | _ ->
                          R.emit ~pass:"auto-par" ~kind:R.Missed ~span
                            "with-loop has no generator loop nest to \
                             parallelize";
                          Some payload)
                | Sites.FoldAcc ->
                    if enabled then
                      R.emit ~pass:"auto-par" ~kind:R.Missed ~span
                        ~details:
                          [
                            ( "demoted",
                              "every iteration updates the single \
                               accumulator" );
                          ]
                        "fold with-loop demoted to sequential: iterations \
                         race on the fold accumulator"
                    else
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: fold nest stays \
                         sequential";
                    Some payload
                | Sites.MatrixMap fname ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted matrixMap iteration space to a parallel \
                         region (lifted '%s' runs per slice on the pool)"
                        fname;
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: matrixMap slices \
                         run sequentially";
                      Some payload
                    end)
            | _ -> None)
          p);
  }

(** In registration order — the default pipeline order. *)
let all = [ fuse; copy_elim; auto_par ]
