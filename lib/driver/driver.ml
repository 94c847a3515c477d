(** The extensible-translator driver (§II): a programmer picks a set of
    language extensions, the system runs the composability analyses,
    composes the grammar and attribute specifications with the host, and
    produces a working translator for the customised language — "the
    programmer is not required to have any knowledge of the language
    composition process."

    Pipeline: compose → scan/parse (context-aware) → build AST →
    semantic analysis → lowering to plain parallel C → CIR pass pipeline
    → {emit C text | execute on the parallel runtime}. *)

module Cfg = Grammar.Cfg
module Tel = Support.Telemetry

(* Re-export: the pass-pipeline configuration is part of the driver's
   public API ([Driver.Pipeline.config] threads through every entry
   point below). *)
module Pipeline = Pipeline

type extension = {
  x_name : string;
  grammar : Cfg.t;
  register : unit -> unit;
  check_hooks : Cminus.Check.hooks;
  lower_hooks : Cminus.Lower.hooks;
  passes : Cir.Pass.t list;
      (** CIR passes this extension registers, in its preferred pipeline
          order; composition concatenates them in extension order *)
  ag_spec : Ag.Wellformed.spec;
  enables_rc : bool;
}

(* --- the extensions shipped with this repository ----------------------------- *)

let matrix : extension =
  {
    x_name = Ext_matrix.Matrix_ext.name;
    grammar = Ext_matrix.Matrix_ext.grammar;
    register = Ext_matrix.Matrix_ext.register;
    check_hooks = Ext_matrix.Matrix_ext.check_hooks;
    lower_hooks = Ext_matrix.Matrix_ext.lower_hooks;
    passes = Ext_matrix.Matrix_ext.passes;
    ag_spec = Ext_matrix.Matrix_ext.ag_spec;
    enables_rc = false;
  }

let transform : extension =
  {
    x_name = Ext_transform.Transform_ext.name;
    grammar = Ext_transform.Transform_ext.grammar;
    register = Ext_transform.Transform_ext.register;
    check_hooks = Ext_transform.Transform_ext.check_hooks;
    lower_hooks = Ext_transform.Transform_ext.lower_hooks;
    passes = [ Ext_transform.Transform_ext.pass ];
    ag_spec = Ext_transform.Transform_ext.ag_spec;
    enables_rc = false;
  }

let refptr : extension =
  {
    x_name = Ext_refptr.Refptr_ext.name;
    grammar = Ext_refptr.Refptr_ext.grammar;
    register = Ext_refptr.Refptr_ext.register;
    check_hooks = Ext_refptr.Refptr_ext.check_hooks;
    lower_hooks = Ext_refptr.Refptr_ext.lower_hooks;
    passes = [];
    ag_spec = Ext_refptr.Refptr_ext.ag_spec;
    enables_rc = Ext_refptr.Refptr_ext.enables_rc;
  }

let cilk : extension =
  {
    x_name = Ext_cilk.Cilk_ext.name;
    grammar = Ext_cilk.Cilk_ext.grammar;
    register = Ext_cilk.Cilk_ext.register;
    check_hooks = Ext_cilk.Cilk_ext.check_hooks;
    lower_hooks = Ext_cilk.Cilk_ext.lower_hooks;
    passes = [];
    ag_spec = Ext_cilk.Cilk_ext.ag_spec;
    enables_rc = false;
  }

let all_extensions = [ matrix; transform; refptr; cilk ]

let extension_by_name n =
  List.find_opt (fun x -> String.equal x.x_name n) all_extensions

(* --- host AG spec (generated from the host grammar) ---------------------------- *)

let host_ag_spec : Ag.Wellformed.spec =
  let nts =
    Cfg.nonterminals Cminus.Syntax.fragment
    @ Cfg.nonterminals Ext_tuples.Tuples_ext.grammar
    |> List.sort_uniq String.compare
  in
  let prod_decl (p : Cfg.production) =
    Ag.Wellformed.full_prod ~owner:"host" ~lhs:p.Cfg.lhs
      ~children:
        (List.filter_map
           (function Cfg.N n -> Some n | Cfg.T _ -> None)
           p.Cfg.rhs)
      ~defines:[ "errors"; "type" ] p.Cfg.p_name
  in
  {
    sp_name = "host";
    attrs =
      [
        {
          a_name = "errors";
          a_mode = Ag.Wellformed.Syn;
          a_autocopy = false;
          a_occurs = nts;
          a_owner = "host";
          a_default = false;
        };
        {
          a_name = "type";
          a_mode = Ag.Wellformed.Syn;
          a_autocopy = false;
          a_occurs = nts;
          a_owner = "host";
          a_default = false;
        };
        {
          a_name = "env";
          a_mode = Ag.Wellformed.Inh;
          a_autocopy = true;
          a_occurs = nts;
          a_owner = "host";
          a_default = false;
        };
      ];
    prods =
      List.map prod_decl
        (Cminus.Syntax.fragment.Cfg.productions
        @ Ext_tuples.Tuples_ext.grammar.Cfg.productions);
  }

(* --- composition ------------------------------------------------------------------ *)

type composed = {
  selected : extension list;
  table : Grammar.Lalr.t;
  parser_ : Parser.Driver.t;
  determinism_reports : Grammar.Determinism.report list;
  ag_reports : Ag.Wellformed.report list;
  rc : bool;
}

exception Compose_failed of string

(** The effective host: CMINUS plus the tuples fragment, which failed
    [isComposable] and is therefore "packaged as part of the host
    language" (§VI-A). *)
let effective_host : Cfg.t =
  Cfg.compose Cminus.Syntax.fragment [ Ext_tuples.Tuples_ext.grammar ]

(** [compose ?force exts] — run both modular analyses for each selected
    extension, then build the composed scanner/parser.  With [force:false]
    (default) an extension failing an analysis aborts composition, which
    is the guarantee the paper's workflow gives the non-expert user. *)
let compose ?(force = false) (selected : extension list) : composed =
  Tel.with_span ~phase:"compose" "driver.compose" @@ fun () ->
  let det_reports =
    Tel.with_span ~phase:"compose" "compose.determinism" (fun () ->
        let host_table = lazy (Grammar.Lalr.build effective_host) in
        List.map
          (fun x ->
            Grammar.Determinism.check ~host_table effective_host x.grammar)
          selected)
  in
  let ag_reports =
    Tel.with_span ~phase:"compose" "compose.wellformed" (fun () ->
        List.map
          (fun x -> Ag.Wellformed.check ~host:host_ag_spec x.ag_spec)
          selected)
  in
  if not force then begin
    List.iter
      (fun (r : Grammar.Determinism.report) ->
        if not r.Grammar.Determinism.passes then
          raise
            (Compose_failed
               (Fmt.str "%a" Grammar.Determinism.pp_report r)))
      det_reports;
    List.iter
      (fun (r : Ag.Wellformed.report) ->
        if not r.Ag.Wellformed.passes then
          raise (Compose_failed (Fmt.str "%a" Ag.Wellformed.pp_report r)))
      ag_reports
  end;
  let cfg = Cfg.compose effective_host (List.map (fun x -> x.grammar) selected) in
  let table =
    Tel.with_span ~phase:"compose" "compose.lalr" (fun () ->
        Grammar.Lalr.build cfg)
  in
  Tel.set_gauge "compose.extensions" (float_of_int (List.length selected));
  Tel.set_gauge "grammar.productions"
    (float_of_int (List.length cfg.Cfg.productions));
  Tel.set_gauge "lalr.states" (float_of_int table.Grammar.Lalr.n_states);
  Tel.set_gauge "lalr.conflicts"
    (float_of_int (List.length table.Grammar.Lalr.conflicts));
  if not (Grammar.Lalr.is_lalr1 table) then
    raise
      (Compose_failed
         (Fmt.str "composed grammar has conflicts:@.%a"
            (Fmt.list ~sep:Fmt.cut (Grammar.Lalr.pp_conflict table.Grammar.Lalr.g))
            table.Grammar.Lalr.conflicts));
  Ext_tuples.Tuples_ext.register ();
  List.iter (fun x -> x.register ()) selected;
  let parser_ =
    Tel.with_span ~phase:"compose" "compose.scanner" (fun () ->
        Parser.Driver.create table)
  in
  {
    selected;
    table;
    parser_;
    determinism_reports = det_reports;
    ag_reports;
    rc = List.exists (fun x -> x.enables_rc) selected;
  }

(* --- pipeline --------------------------------------------------------------------- *)

type 'a outcome = Ok_ of 'a | Failed of Support.Diag.t list

(** [frontend c src] — scan, parse, build and typecheck [src].  Returns
    the typed AST or diagnostics; every optimization runs later, in the
    CIR pass pipeline ({!lower}). *)
let frontend (c : composed) (src : string) : Cminus.Ast.program outcome =
  match
    Tel.with_span ~phase:"parse" "frontend.parse" (fun () ->
        Parser.Driver.parse c.parser_ src)
  with
  | Error e -> Failed [ Parser.Driver.error_to_diag e ]
  | Ok tree -> (
      match
        Tel.with_span ~phase:"parse" "frontend.build" (fun () ->
            Cminus.Build.program tree)
      with
      | exception Cminus.Build.Build_error (m, span) ->
          Failed [ Support.Diag.error ~phase:"build" ~span "%s" m ]
      | ast ->
          let diags =
            Tel.with_span ~phase:"check" "frontend.check" (fun () ->
                Cminus.Check.check_program
                  (List.map (fun x -> x.check_hooks) c.selected)
                  ast)
          in
          if Support.Diag.has_errors diags then Failed diags else Ok_ ast)

(** The CIR passes the selected extensions registered, in pipeline
    order. *)
let registered_passes (c : composed) : Cir.Pass.t list =
  List.concat_map (fun x -> x.passes) c.selected

(** The default pipeline for this composition: every registered pass at
    its own default. *)
let default_config (c : composed) : Pipeline.config =
  Pipeline.default (registered_passes c)

let config_or_default config c =
  match config with Some cfg -> cfg | None -> default_config c

(** [lower c ast] — translate to the plain-C IR: one baseline lowering,
    then the pass pipeline [config] (default: every registered pass at
    its own default).  [warn] receives non-fatal diagnostics (e.g.
    transform scripts skipped under auto-parallelization); [sink]
    collects [--dump-ir] snapshots. *)
let lower ?config ?warn ?sink (c : composed) (ast : Cminus.Ast.program) :
    Cir.Ir.program outcome =
  let cfg = config_or_default config c in
  match
    Tel.with_span ~phase:"lower" "driver.lower" (fun () ->
        let lowered =
          Cminus.Lower.lower_program ?warn
            (List.map (fun x -> x.lower_hooks) c.selected)
            ~rc:c.rc ast
        in
        Pipeline.run cfg ~rc:c.rc ?warn ?sink lowered)
  with
  | prog ->
      (* Per-pass remark counts become [remark.<pass>.<kind>] gauges, so
         [--stats] tables and the bench trajectory see optimizer coverage.
         No-op unless both remark collection and telemetry are enabled. *)
      Support.Remark.export_gauges ();
      Ok_ prog
  | exception Cminus.Lower.Lower_error (m, span) ->
      Failed [ Support.Diag.error ~phase:"lower" ~span "%s" m ]
  | exception Cir.Pass.Error (m, span) ->
      Failed [ Support.Diag.error ~phase:"lower" ~span "%s" m ]

(** [compile_to_c c src] — the paper's headline artifact: extended C in,
    plain parallel C out.  [line_file] turns on [#line] directives naming
    that file, so C-level debuggers and profilers point back at the
    original source. *)
let compile_to_c ?config ?warn ?sink ?line_file ?instrument ?guards
    ?exec_harness (c : composed) (src : string) : string outcome =
  match frontend c src with
  | Failed d -> Failed d
  | Ok_ ast -> (
      match lower ?config ?warn ?sink c ast with
      | Failed d -> Failed d
      | Ok_ prog ->
          Ok_
            (Tel.with_span ~phase:"emit" "driver.emit" (fun () ->
                 Cir.Emit.program ?line_directives_file:line_file ?instrument
                   ?guards ?exec_harness prog)))

(* --- runtime failure -> structured diagnostic --------------------------------- *)

(* Every failure class the runtime can surface, mapped to a diagnostic.
   Exceptions the interpreter enriched with provenance ([Runtime_error],
   a span-carrying [Resource_limit]) keep their span and render with a
   caret excerpt; the rest anchor at the dummy span.  Returns [None] for
   exceptions that are not program failures (driver bugs, Stack_overflow,
   Out_of_memory …) — those keep propagating. *)
let runtime_failure_diag exn =
  let d ?(span = Support.Pos.dummy_span) m =
    Some (Support.Diag.error ~phase:"run" ~span "%s" m)
  in
  match exn with
  | Interp.Eval.Interp_error m -> d m
  | Interp.Eval.Runtime_error (m, span) -> d ~span m
  | Runtime.Limits.Resource_limit v ->
      let span =
        Option.value ~default:Support.Pos.dummy_span v.Runtime.Limits.v_span
      in
      d ~span (Runtime.Limits.describe v)
  | Support.Failpoint.Injected n ->
      d (Printf.sprintf "injected fault at failpoint %s" n)
  | Runtime.Ndarray.Io_error m
  | Runtime.Ndarray.Type_error m
  | Runtime.Scalar.Type_error m
  | Runtime.Shape.Shape_error m ->
      d m
  | Runtime.Rc.Use_after_free id ->
      d (Printf.sprintf "use of matrix cell #%d after its count reached 0" id)
  | Runtime.Rc.Double_free id ->
      d (Printf.sprintf "reference count of matrix cell #%d went negative" id)
  | _ -> None

(** [remove_tree path] — delete [path] and, for a directory, everything
    under it; best effort (a [Sys_error] stops it silently). *)
let remove_tree path =
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  try remove path with Sys_error _ -> ()

(** [with_data_dir dir k] — run [k] in the program's data directory:
    [dir] as given, or a fresh temporary directory removed afterwards on
    every exit path — recursively, since programs writeMatrix into it. *)
let with_data_dir dir k =
  match dir with
  | Some d -> k d
  | None ->
      let d = Filename.temp_file "mmcfs" "" in
      Sys.remove d;
      Sys.mkdir d 0o755;
      Fun.protect ~finally:(fun () -> remove_tree d) (fun () -> k d)

(** [run c src args] — compile and execute on the parallel runtime.
    [pool] supplies the enhanced fork-join worker pool; [dir] hosts the
    program's matrix files (a temporary directory when absent). *)
let run ?config ?warn ?pool ?dir (c : composed) (src : string)
    (args : Interp.Eval.value list) : Interp.Eval.value outcome =
  Option.iter
    (fun p ->
      Tel.set_gauge "pool.threads" (float_of_int (Runtime.Pool.threads p)))
    pool;
  match frontend c src with
  | Failed d -> Failed d
  | Ok_ ast -> (
      match lower ?config ?warn c ast with
      | Failed d -> Failed d
      | Ok_ prog -> (
          match
            Tel.with_span ~phase:"run" "driver.run" (fun () ->
                with_data_dir dir (fun dir ->
                    Interp.Eval.run ?pool ~dir prog args))
          with
          | v ->
              (* Memory gauges: what the program's RC discipline left
                 behind and how high the live set got. *)
              Tel.set_gauge "rc.live_bytes"
                (float_of_int (Runtime.Rc.live_bytes ()));
              Tel.set_gauge "rc.peak_bytes"
                (float_of_int (Runtime.Rc.peak_bytes ()));
              Tel.set_gauge "rc.allocated_bytes"
                (float_of_int (Runtime.Rc.allocated_bytes ()));
              Support.Failpoint.export_gauges ();
              Ok_ v
          | exception e -> (
              let bt = Printexc.get_raw_backtrace () in
              Tel.set_gauge "rc.live_bytes"
                (float_of_int (Runtime.Rc.live_bytes ()));
              Support.Failpoint.export_gauges ();
              match runtime_failure_diag e with
              | Some diag -> Failed [ diag ]
              | None -> Printexc.raise_with_backtrace e bt)))

(* --- native execution (mmc exec) --------------------------------------- *)

(* Map every native failure class to a diagnostic.  Compile-time classes
   (no compiler / sanitizer unsupported / emitted C rejected) report under
   "native-compile"; everything after a successful compile is
   "native-run".  Crash triage recovers source spans where the runtime
   left them — a [__mm_fault] line's span, or the crash-sidecar
   breadcrumb a fatal-signal handler flushed — so a native SIGSEGV or a
   tripped guard renders a caret excerpt exactly like an interpreter
   failure; classes with no provenance anchor at the dummy span. *)
let native_failure_diag (e : Native.Exec.error) =
  let phase =
    match e with
    | Native.Exec.Toolchain_error _ -> "native-compile"
    | Native.Exec.Run_failed _ | Native.Exec.Run_signaled _
    | Native.Exec.Run_timeout _ | Native.Exec.Guard_fault _
    | Native.Exec.Bad_output _ ->
        "native-run"
  in
  let span =
    match e with
    | Native.Exec.Guard_fault f -> f.Native.Exec.f_span
    | Native.Exec.Run_signaled { fault; crash_span; _ } -> (
        match fault with
        | Some f when f.Native.Exec.f_span <> None -> f.Native.Exec.f_span
        | _ -> crash_span)
    | _ -> None
  in
  let span = Option.value span ~default:Support.Pos.dummy_span in
  Support.Diag.error ~phase ~span "%s" (Native.Exec.describe_error e)

(** [exec c src] — the native twin of {!run}: emit self-contained C (exec
    harness included), compile it with the system toolchain through the
    binary cache, run the binary supervised in [dir], and parse its
    printed result.  The returned outcome's [value] matches what {!run}
    would have produced, bit-for-bit.

    Recovery policy (both legs export telemetry):
    - a failed compile is retried once after forcing the cache slot to be
      rebuilt ([native.retries] counts the retry) — a transient toolchain
      flake or a corrupt cached object must not fail the program;
    - a signal death in a parallel run ([threads] > 1) triggers one
      sequential-degrade rerun: [OMP_NUM_THREADS=1] with failpoints
      disarmed, gauged as [native.degraded].  Deterministic failures
      (guard faults, mm_fatal exits, timeouts) never degrade — rerunning
      cannot change them. *)
let exec ?config ?warn ?dir ?cc ?(cflags = []) ?keep_c
    ?line_file ?instrument ?guards ?sanitize ?failpoints ?timeout_s
    ?max_bytes ?(cache = true) ?cache_dir ?(threads = 1) (c : composed)
    (src : string) : Native.Exec.outcome outcome =
  let cfg = config_or_default config c in
  match
    compile_to_c ~config:cfg ?warn ?line_file ?instrument
      ?guards ~exec_harness:true c src
  with
  | Failed d -> Failed d
  | Ok_ c_text -> (
      with_data_dir dir @@ fun dir ->
      let attempt ?failpoints ~cache ~threads () =
        Tel.with_span ~phase:"run" "driver.exec" (fun () ->
            Native.Exec.run ?cc ~cflags ~cache ?cache_dir ?keep_c ?instrument
              ?sanitize ?failpoints ?timeout_s ?max_bytes ~threads ~dir
              ~pipeline:(Pipeline.canon cfg) c_text)
      in
      let first = attempt ?failpoints ~cache ~threads () in
      let recovered =
        match first with
        | Error (Native.Exec.Toolchain_error (Native.Toolchain.Compile_failed _))
          ->
            (* cache:false skips the lookup but still (re)writes the slot,
               so a stale object cannot poison the retry *)
            Tel.set_gauge "native.retries" 1.;
            attempt ?failpoints ~cache:false ~threads ()
        | Error (Native.Exec.Run_signaled _) when threads > 1 ->
            (* [Some ""] explicitly disarms an inherited MM_FAILPOINTS
               spec: the degraded run must observe the program, not the
               fault injection that just killed it *)
            Tel.set_gauge "native.degraded" 1.;
            attempt ~failpoints:"" ~cache:true ~threads:1 ()
        | r -> r
      in
      match recovered with
      | Ok outcome -> Ok_ outcome
      | Error e ->
          (* the first error wins the report when recovery also failed
             with a strictly less informative class *)
          let e =
            match (first, e) with
            | Error (Native.Exec.Run_signaled _ as orig), Native.Exec.Run_failed _
              ->
                orig
            | _ -> e
          in
          Failed [ native_failure_diag e ])

(** [diags_to_string ?src ds] — rendered diagnostics; with [src] each one
    gains a clang-style source excerpt with a caret underline. *)
let diags_to_string ?src ds =
  match src with
  | None -> Fmt.str "%a" Support.Diag.pp_list ds
  | Some src -> Fmt.str "%a" (Support.Diag.pp_list_with_source src) ds

(* --- source-attributed profiling (mmc profile) ------------------------- *)

module Profile_report = struct
  module P = Support.Profile

  type t = {
    wall_ns : int;
    rows : P.row list;
    folded : (string * int) list;  (** "outer;inner" stack -> self ns *)
    attributed_ns : int;
    unattributed_alloc : int;
    live_bytes : int;
    peak_bytes : int;
    allocated_bytes : int;
  }

  (** Snapshot the profiler's aggregates after a run measured at
      [wall_ns]. *)
  let collect ~wall_ns () =
    {
      wall_ns;
      rows = P.results ();
      folded = P.folded ();
      attributed_ns = P.attributed_ns ();
      unattributed_alloc = P.unattributed_alloc_bytes ();
      live_bytes = Runtime.Rc.live_bytes ();
      peak_bytes = Runtime.Rc.peak_bytes ();
      allocated_bytes = Runtime.Rc.allocated_bytes ();
    }

  (** A native profile (the mm_profile.json sidecar an instrumented
      binary dumped, parsed by {!Native.Prof}) in the same report shape,
      so every renderer below works on both.  Rows sort by self time like
      [P.results ()]. *)
  let of_native (n : Native.Prof.t) =
    {
      wall_ns = n.Native.Prof.wall_ns;
      rows =
        List.sort
          (fun (a : P.row) (b : P.row) ->
            compare b.P.r_self_ns a.P.r_self_ns)
          n.Native.Prof.rows;
      folded =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          n.Native.Prof.folded;
      attributed_ns = n.Native.Prof.attributed_ns;
      unattributed_alloc = n.Native.Prof.unattributed_alloc;
      live_bytes = n.Native.Prof.live_bytes;
      peak_bytes = n.Native.Prof.peak_bytes;
      allocated_bytes = n.Native.Prof.allocated_bytes;
    }

  let coverage t =
    if t.wall_ns <= 0 then 1.0
    else float_of_int t.attributed_ns /. float_of_int t.wall_ns

  (* First source line of the span, trimmed and clipped — the "what the
     user wrote" column of the hot-loop table. *)
  let excerpt ~src (sp : Support.Pos.span) =
    match Support.Diag.source_line src sp.Support.Pos.left.Support.Pos.line with
    | None -> ""
    | Some line ->
        let line = String.trim line in
        if String.length line > 42 then String.sub line 0 39 ^ "..."
        else line

  let pct t ns =
    if t.wall_ns <= 0 then 0.
    else 100. *. float_of_int ns /. float_of_int t.wall_ns

  let human_bytes b =
    if b >= 1 lsl 20 then Printf.sprintf "%.1fM" (float_of_int b /. 1048576.)
    else if b >= 1024 then Printf.sprintf "%.1fK" (float_of_int b /. 1024.)
    else string_of_int b

  let ms ns = float_of_int ns /. 1e6

  (** Hot-loop table sorted by self time, plus memory summary lines. *)
  let pp ?(top = 15) ~src ppf t =
    Fmt.pf ppf "--- profile: hot source spans (%.3f ms wall) ---@." (ms t.wall_ns);
    Fmt.pf ppf "  %-12s %6s %10s %10s %8s %8s %9s  %s@." "span" "self%"
      "self ms" "total ms" "iters" "disp" "alloc" "source";
    let rows = List.filteri (fun i _ -> i < top) t.rows in
    List.iter
      (fun (r : P.row) ->
        Fmt.pf ppf "  %-12s %6.1f %10.3f %10.3f %8d %8d %9s  %s@."
          (Support.Pos.span_to_string r.P.r_span)
          (pct t r.P.r_self_ns) (ms r.P.r_self_ns) (ms r.P.r_total_ns)
          r.P.r_iters r.P.r_dispatches
          (human_bytes r.P.r_alloc_bytes)
          (excerpt ~src r.P.r_span))
      rows;
    (let dropped = List.length t.rows - List.length rows in
     if dropped > 0 then Fmt.pf ppf "  ... %d more spans@." dropped);
    Fmt.pf ppf "  attributed: %.1f%% of wall time@." (100. *. coverage t);
    let par = List.fold_left (fun a (r : P.row) -> a + r.P.r_par_ns) 0 t.rows in
    let seq = List.fold_left (fun a (r : P.row) -> a + r.P.r_seq_ns) 0 t.rows in
    Fmt.pf ppf "  par/seq self time: %.3f / %.3f ms@." (ms par) (ms seq);
    Fmt.pf ppf
      "  memory: %s allocated, %s peak live, %s still live, %s unattributed@."
      (human_bytes t.allocated_bytes)
      (human_bytes t.peak_bytes) (human_bytes t.live_bytes)
      (human_bytes t.unattributed_alloc)

  let to_string ?top ~src t = Fmt.str "%a" (pp ?top ~src) t

  (** Machine-readable snapshot; schema checked by [bench
      --check-profile-json]. *)
  let to_json ~src t =
    let j = Tel.json_string in
    let row (r : P.row) =
      Tel.json_obj
        [
          ("span", j (Support.Pos.span_to_string r.P.r_span));
          ("line", string_of_int r.P.r_span.Support.Pos.left.Support.Pos.line);
          ("source", j (excerpt ~src r.P.r_span));
          ("total_ns", string_of_int r.P.r_total_ns);
          ("self_ns", string_of_int r.P.r_self_ns);
          ("pct", Printf.sprintf "%.3f" (pct t r.P.r_self_ns));
          ("iters", string_of_int r.P.r_iters);
          ("dispatches", string_of_int r.P.r_dispatches);
          ("par_ns", string_of_int r.P.r_par_ns);
          ("seq_ns", string_of_int r.P.r_seq_ns);
          ("alloc_bytes", string_of_int r.P.r_alloc_bytes);
          ( "workers",
            Tel.json_obj
              (List.map
                 (fun (w, ns) -> (string_of_int w, string_of_int ns))
                 (List.sort compare r.P.r_worker_ns)) );
        ]
    in
    Tel.json_obj
      [
        ("wall_ns", string_of_int t.wall_ns);
        ("attributed_ns", string_of_int t.attributed_ns);
        ("coverage", Printf.sprintf "%.4f" (coverage t));
        ("rows", "[" ^ String.concat "," (List.map row t.rows) ^ "]");
        ( "memory",
          Tel.json_obj
            [
              ("allocated_bytes", string_of_int t.allocated_bytes);
              ("peak_bytes", string_of_int t.peak_bytes);
              ("live_bytes", string_of_int t.live_bytes);
              ("unattributed_alloc_bytes", string_of_int t.unattributed_alloc);
            ] );
      ]

  (** Folded-stack lines ("outer;inner self_ns") for flamegraph tools. *)
  let folded_lines t =
    List.map (fun (path, ns) -> Printf.sprintf "%s %d" path ns) t.folded

  (** Schema check for {!to_json} output (shared by [bench
      --check-profile-json] and the native-profile tests: interp and
      native reports must satisfy the same contract).  Returns the list
      of problems, empty when the document conforms. *)
  let validate_json (j : Support.Json.t) : string list =
    let module J = Support.Json in
    let problems = ref [] in
    let bad fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
    let need_num obj ctx name =
      if J.num_field obj name = None then bad "%s: missing number %S" ctx name
    in
    List.iter (need_num j "top-level") [ "wall_ns"; "attributed_ns"; "coverage" ];
    (match J.num_field j "coverage" with
    | Some c when c < 0.0 || c > 1.5 -> bad "coverage %.3f out of range" c
    | _ -> ());
    (match Option.bind (J.field "rows" j) J.arr with
    | None -> bad "top-level: missing array \"rows\""
    | Some rows ->
        List.iteri
          (fun i row ->
            let ctx = Printf.sprintf "rows[%d]" i in
            if Option.bind (J.field "span" row) J.str = None then
              bad "%s: missing string \"span\"" ctx;
            if Option.bind (J.field "source" row) J.str = None then
              bad "%s: missing string \"source\"" ctx;
            List.iter (need_num row ctx)
              [
                "line"; "total_ns"; "self_ns"; "pct"; "iters"; "dispatches";
                "par_ns"; "seq_ns"; "alloc_bytes";
              ];
            match J.field "workers" row with
            | Some (J.Obj _) -> ()
            | _ -> bad "%s: missing object \"workers\"" ctx)
          rows);
    (match J.field "memory" j with
    | Some mem ->
        List.iter (need_num mem "memory")
          [
            "allocated_bytes"; "peak_bytes"; "live_bytes";
            "unattributed_alloc_bytes";
          ]
    | None -> bad "top-level: missing object \"memory\"");
    List.rev !problems

  (* --- interp-vs-native differential ----------------------------------- *)

  type diff_row = {
    d_span : string;
    d_line : int;
    d_source : string;
    d_interp_self_ns : int option;  (** [None]: span absent on that side *)
    d_native_self_ns : int option;
    d_speedup : float option;  (** interp self / native self, both present *)
    d_lagging : bool;
        (** a significant span whose native speedup trails the
            program-level interp/native ratio by more than half *)
  }

  type diff = {
    interp_wall_ns : int;
    native_wall_ns : int;
    program_ratio : float;  (** interp wall / native wall *)
    diff_rows : diff_row list;
  }

  (** Join an interpreted and a native report span-by-span (on the
      rendered span string — both sides derive it from the same
      provenance).  A span is flagged lagging when it holds at least 1%
      of interp wall time yet its native speedup is under half the
      program-level ratio: the loops where native code gains least. *)
  let diff_reports ~src ~(interp : t) ~(native : t) : diff =
    let program_ratio =
      if native.wall_ns <= 0 then 0.
      else float_of_int interp.wall_ns /. float_of_int native.wall_ns
    in
    let key (r : P.row) = Support.Pos.span_to_string r.P.r_span in
    let native_tbl = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace native_tbl (key r) r) native.rows;
    let seen = Hashtbl.create 16 in
    let row_of (r : P.row) =
      let k = key r in
      Hashtbl.replace seen k ();
      let n = Hashtbl.find_opt native_tbl k in
      let interp_self = r.P.r_self_ns in
      let native_self = Option.map (fun (n : P.row) -> n.P.r_self_ns) n in
      let speedup =
        match native_self with
        | Some ns when ns > 0 -> Some (float_of_int interp_self /. float_of_int ns)
        | _ -> None
      in
      let significant =
        interp.wall_ns > 0
        && float_of_int interp_self >= 0.01 *. float_of_int interp.wall_ns
      in
      {
        d_span = k;
        d_line = r.P.r_span.Support.Pos.left.Support.Pos.line;
        d_source = excerpt ~src r.P.r_span;
        d_interp_self_ns = Some interp_self;
        d_native_self_ns = native_self;
        d_speedup = speedup;
        d_lagging =
          (significant
          &&
          match speedup with
          | Some s -> s < 0.5 *. program_ratio
          | None -> false);
      }
    in
    let joined = List.map row_of interp.rows in
    (* Native-only spans (e.g. loops the interpreter ran inside a pool
       region) still show, so nothing silently disappears. *)
    let native_only =
      List.filter_map
        (fun (r : P.row) ->
          let k = key r in
          if Hashtbl.mem seen k then None
          else
            Some
              {
                d_span = k;
                d_line = r.P.r_span.Support.Pos.left.Support.Pos.line;
                d_source = excerpt ~src r.P.r_span;
                d_interp_self_ns = None;
                d_native_self_ns = Some r.P.r_self_ns;
                d_speedup = None;
                d_lagging = false;
              })
        native.rows
    in
    {
      interp_wall_ns = interp.wall_ns;
      native_wall_ns = native.wall_ns;
      program_ratio;
      diff_rows = joined @ native_only;
    }

  let pp_diff ppf (d : diff) =
    Fmt.pf ppf
      "--- interp vs native: %.3f ms -> %.3f ms (%.1fx program speedup) ---@."
      (ms d.interp_wall_ns) (ms d.native_wall_ns) d.program_ratio;
    Fmt.pf ppf "  %-12s %12s %12s %9s  %s@." "span" "interp ms" "native ms"
      "speedup" "source";
    List.iter
      (fun r ->
        let side = function
          | Some ns -> Printf.sprintf "%12.3f" (ms ns)
          | None -> Printf.sprintf "%12s" "-"
        in
        Fmt.pf ppf "  %-12s %s %s %9s  %s%s@." r.d_span
          (side r.d_interp_self_ns) (side r.d_native_self_ns)
          (match r.d_speedup with
          | Some s -> Printf.sprintf "%.1fx" s
          | None -> "-")
          r.d_source
          (if r.d_lagging then "  << lagging" else ""))
      d.diff_rows;
    if List.exists (fun r -> r.d_lagging) d.diff_rows then
      Fmt.pf ppf
        "  << lagging: native speedup under half the program ratio for a \
         span holding >= 1%% of interp time@."

  let diff_to_string d = Fmt.str "%a" pp_diff d

  let diff_to_json (d : diff) =
    let j = Tel.json_string in
    let opt_ns = function Some ns -> string_of_int ns | None -> "null" in
    let row r =
      Tel.json_obj
        [
          ("span", j r.d_span);
          ("line", string_of_int r.d_line);
          ("source", j r.d_source);
          ("interp_self_ns", opt_ns r.d_interp_self_ns);
          ("native_self_ns", opt_ns r.d_native_self_ns);
          ( "speedup",
            match r.d_speedup with
            | Some s -> Printf.sprintf "%.3f" s
            | None -> "null" );
          ("lagging", if r.d_lagging then "true" else "false");
        ]
    in
    Tel.json_obj
      [
        ("interp_wall_ns", string_of_int d.interp_wall_ns);
        ("native_wall_ns", string_of_int d.native_wall_ns);
        ("program_ratio", Printf.sprintf "%.3f" d.program_ratio);
        ("rows", "[" ^ String.concat "," (List.map row d.diff_rows) ^ "]");
      ]
end

(* --- compiler decision tracing (mmc explain) --------------------------- *)

module Explain_report = struct
  (** What [mmc explain] renders: every optimization remark the pipeline
      emitted while compiling the file, plus the rendered [--dump-ir]
      snapshots when any were requested. *)
  type t = {
    remarks : Support.Remark.t list;
    dump : string;  (** rendered IR snapshots; [""] when none requested *)
  }

  let collect ?sink () =
    {
      remarks = Support.Remark.results ();
      dump =
        (match sink with
        | Some s when s.Cir.Snapshot.passes <> [] -> Cir.Snapshot.to_string s
        | _ -> "");
    }

  (** Keep only remarks matching the [--only pass=…]/[--only kind=…]
      filters. *)
  let filter ?pass ?kind t =
    { t with remarks = Support.Remark.filter ?pass ?kind t.remarks }

  (** Remark table grouped by pass; with [src], each remark renders a
      caret excerpt.  IR snapshots (if any) follow the table. *)
  let pp ?src ppf t =
    Support.Remark.pp ?src ppf t.remarks;
    if t.dump <> "" then Fmt.pf ppf "@.%s" t.dump

  let to_string ?src t = Fmt.str "%a" (pp ?src) t

  (** Machine-readable report; schema checked by {!validate_json}. *)
  let to_json t = Support.Remark.to_json t.remarks

  (** The passes that can remark on a pipeline over [c]: every
      registered pass, then the always-appended rc report. *)
  let passes (c : composed) =
    Pipeline.known (default_config c) @ [ Cir.Pass.rc_report.Cir.Pass.name ]

  (** Schema check for {!to_json} output of a pipeline over [c] (shared
      by [bench --check-explain-json] and the explain tests): every
      remark names one of {!passes} and a known kind, carries a span
      object with numeric fields and a non-empty message; the counts
      object holds the three numeric tallies per pass.  Returns the list
      of problems, empty when the document conforms. *)
  let validate_json (c : composed) (j : Support.Json.t) : string list =
    let module J = Support.Json in
    let problems = ref [] in
    let bad fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
    let passes = passes c in
    let kinds = [ "applied"; "missed"; "skipped" ] in
    (match Option.bind (J.field "remarks" j) J.arr with
    | None -> bad "top-level: missing array \"remarks\""
    | Some remarks ->
        List.iteri
          (fun i r ->
            let ctx = Printf.sprintf "remarks[%d]" i in
            (match Option.bind (J.field "pass" r) J.str with
            | Some p when List.mem p passes -> ()
            | Some p -> bad "%s: unknown pass %S" ctx p
            | None -> bad "%s: missing string \"pass\"" ctx);
            (match Option.bind (J.field "kind" r) J.str with
            | Some k when List.mem k kinds -> ()
            | Some k -> bad "%s: unknown kind %S" ctx k
            | None -> bad "%s: missing string \"kind\"" ctx);
            (match Option.bind (J.field "message" r) J.str with
            | Some m when String.length m > 0 -> ()
            | Some _ -> bad "%s: empty message" ctx
            | None -> bad "%s: missing string \"message\"" ctx);
            (match J.field "span" r with
            | Some span ->
                List.iter
                  (fun name ->
                    if J.num_field span name = None then
                      bad "%s: span missing number %S" ctx name)
                  [ "line"; "col"; "end_line"; "end_col" ]
            | None -> bad "%s: missing object \"span\"" ctx);
            match J.field "details" r with
            | Some (J.Obj _) | None -> ()
            | Some _ -> bad "%s: \"details\" is not an object" ctx)
          remarks);
    (match J.field "counts" j with
    | None -> bad "top-level: missing object \"counts\""
    | Some (J.Obj counts) ->
        List.iter
          (fun (pass, tallies) ->
            if not (List.mem pass passes) then
              bad "counts: unknown pass %S" pass;
            List.iter
              (fun k ->
                if J.num_field tallies k = None then
                  bad "counts.%s: missing number %S" pass k)
              kinds)
          counts
    | Some _ -> bad "top-level: \"counts\" is not an object");
    List.rev !problems
end

(** Every stage [--dump-ir] can capture for [c]: the baseline lowering,
    then each registered pass, in registration order. *)
let snapshot_stages (c : composed) =
  "lower" :: Pipeline.known (default_config c)

(** The default pipeline for the tracing/measuring entry points
    ({!explain}, {!profile}, {!profile_native}): auto-parallelization on —
    those commands answer "what would the optimizer do", so the default
    shows the full pipeline at work. *)
let explain_config (c : composed) : Pipeline.config =
  Pipeline.enable (default_config c) "auto-par" true

(** [explain ?… c src] — compile [src] with remark collection on and
    return (lowering outcome, report).  [dump_passes]/[ir_diff] drive the
    pass-by-pass IR snapshots (["all"] selects every
    {!snapshot_stages}): the program is lowered exactly once and the
    pass manager records each requested ["ir after <pass>"] snapshot as
    the pipeline reaches that stage (the transform pass records its own
    per-clause snapshots into the same sink). *)
let explain ?config ?(dump_passes = []) ?(ir_diff = false) ?warn
    (c : composed) (src : string) :
    Cir.Ir.program outcome * Explain_report.t =
  let cfg = match config with Some cfg -> cfg | None -> explain_config c in
  Support.Remark.reset ();
  Support.Remark.set_enabled true;
  let passes =
    if List.mem "all" dump_passes then snapshot_stages c else dump_passes
  in
  let sink = Cir.Snapshot.create ~passes ~diff:ir_diff () in
  match frontend c src with
  | Failed d -> (Failed d, Explain_report.collect ~sink ())
  | Ok_ ast ->
      let out = lower ~config:cfg ?warn ~sink c ast in
      (out, Explain_report.collect ~sink ())

(** [profile ?… c src args] — run [src] with the source-attributed
    profiler enabled and return (program result outcome, report).  The
    profiler and RC registry are reset first so the report covers exactly
    this run, and the wall clock starts after lowering so the report's
    coverage measures execution, not compilation. *)
let profile ?config ?warn ?pool ?dir
    (c : composed) (src : string) (args : Interp.Eval.value list) :
    Interp.Eval.value outcome * Profile_report.t =
  Option.iter
    (fun p ->
      Tel.set_gauge "pool.threads" (float_of_int (Runtime.Pool.threads p)))
    pool;
  let cfg = match config with Some cfg -> cfg | None -> explain_config c in
  let prep =
    match frontend c src with
    | Failed d -> Failed d
    | Ok_ ast -> lower ~config:cfg ?warn c ast
  in
  match prep with
  | Failed d -> (Failed d, Profile_report.collect ~wall_ns:0 ())
  | Ok_ prog -> (
      Support.Profile.reset ();
      Support.Profile.set_enabled true;
      Runtime.Rc.reset ();
      let prev_hook = !Runtime.Ndarray.alloc_hook in
      Runtime.Ndarray.alloc_hook := Some Support.Profile.on_alloc;
      let t0 = Tel.now_ns () in
      let finish () =
        let wall_ns = Tel.now_ns () - t0 in
        Support.Profile.set_enabled false;
        Runtime.Ndarray.alloc_hook := prev_hook;
        Tel.set_gauge "rc.live_bytes" (float_of_int (Runtime.Rc.live_bytes ()));
        Tel.set_gauge "rc.peak_bytes" (float_of_int (Runtime.Rc.peak_bytes ()));
        Profile_report.collect ~wall_ns ()
      in
      match
        Tel.with_span ~phase:"run" "driver.profile_run" (fun () ->
            with_data_dir dir (fun dir -> Interp.Eval.run ?pool ~dir prog args))
      with
      | v ->
          Support.Failpoint.export_gauges ();
          (Ok_ v, finish ())
      | exception e -> (
          let bt = Printexc.get_raw_backtrace () in
          Support.Failpoint.export_gauges ();
          let report = finish () in
          match runtime_failure_diag e with
          | Some diag -> (Failed [ diag ], report)
          | None -> Printexc.raise_with_backtrace e bt))

(** [profile_native ?… c src] — the native twin of {!profile}: emit
    instrumented C (exec harness plus mm_prof enter/exit calls over the
    generated span table), compile and run it through the binary cache
    (instrumented binaries key separately), and parse the binary's
    mm_profile.json sidecar back into the same report shape [mmc
    profile] renders for interpreted runs. *)
let profile_native ?config ?warn ?dir ?cc ?cflags
    ?keep_c ?cache ?cache_dir ?(threads = 1) ?line_file (c : composed)
    (src : string) : (Native.Exec.outcome * Profile_report.t) outcome =
  let cfg = match config with Some cfg -> cfg | None -> explain_config c in
  match
    exec ~config:cfg ?warn ?dir ?cc ?cflags ?keep_c ?line_file
      ~instrument:true ?cache ?cache_dir ~threads c src
  with
  | Failed d -> Failed d
  | Ok_ outcome -> (
      match outcome.Native.Exec.profile_json with
      | None ->
          Failed
            [
              Support.Diag.error ~phase:"native-run"
                ~span:Support.Pos.dummy_span
                "native profile sidecar missing (instrumented binary wrote \
                 no mm_profile.json)";
            ]
      | Some text -> (
          match Native.Prof.parse text with
          | Error m ->
              Failed
                [
                  Support.Diag.error ~phase:"native-run"
                    ~span:Support.Pos.dummy_span
                    "cannot parse native profile: %s" m;
                ]
          | Ok prof -> Ok_ (outcome, Profile_report.of_native prof)))
