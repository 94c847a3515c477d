(** Executor for lowered programs.

    The paper compiles the generated C with gcc and runs it on a 2×6-core
    machine; in this reproduction the lowered IR is executed directly (see
    DESIGN.md §2): scalar code evaluates with C semantics, [ParFor] regions
    dispatch onto the enhanced fork-join domain pool of {!Runtime.Pool},
    vector operations execute 4-lane f32 arithmetic via {!Runtime.Simd},
    and matrix allocation goes through the reference-counting registry so
    tests can assert the no-leak invariant of the generated code. *)

open Cir.Ir
module S = Runtime.Scalar
module Nd = Runtime.Ndarray

type value =
  | VUnit
  | VNull  (** uninitialised matrix handle (C's NULL pointer) *)
  | VScal of S.t
  | VMat of Nd.t Runtime.Rc.t
  | VVec of Runtime.Simd.v
  | VTuple of value array

exception Interp_error of string

exception Runtime_error of string * Support.Pos.span
(** A runtime failure enriched with the provenance span of the innermost
    [Located] block or loop that was executing — the driver renders it
    with the same caret excerpt as a static diagnostic. *)

let err fmt = Format.kasprintf (fun m -> raise (Interp_error m)) fmt

(* Interpreter telemetry: how much work the lowered program actually did
   (allocation traffic, parallel regions, call volume, element stores). *)
let c_mat_allocs = Support.Telemetry.counter "interp.mat_allocs"
let c_parfor = Support.Telemetry.counter "interp.parfor_regions"
let c_calls = Support.Telemetry.counter "interp.calls"
let c_stores = Support.Telemetry.counter "interp.elem_stores"

let rec pp_value ppf = function
  | VUnit -> Fmt.string ppf "void"
  | VNull -> Fmt.string ppf "NULL"
  | VScal s -> S.pp ppf s
  | VMat rc -> Nd.pp ppf (Runtime.Rc.get rc)
  | VVec v -> Runtime.Simd.pp ppf v
  | VTuple vs ->
      Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_value) vs

let scal = function
  | VScal s -> s
  | v -> err "expected scalar, got %a" pp_value v

let mat = function
  | VMat rc -> Runtime.Rc.get rc
  | VNull -> err "use of an uninitialised matrix"
  | v -> err "expected matrix, got %a" pp_value v

let mat_rc = function
  | VMat rc -> rc
  | VNull -> err "use of an uninitialised matrix"
  | v -> err "expected matrix, got %a" pp_value v

let vecv = function
  | VVec v -> v
  | v -> err "expected vector, got %a" pp_value v

let int_of v = S.to_int (scal v)
let float_of v = S.to_float (scal v)
let bool_of v = S.truthy (scal v)

(* --- environments --------------------------------------------------------- *)

type spawn_entry = { s_dom : value Domain.t; s_target : value ref option }

type env = {
  vars : (string, value ref) Hashtbl.t;
  parent : env option;
  mutable cilk_spawned : spawn_entry list;
      (** Cilk children of this invocation; only consulted on the
          function-root environment (each [call] has its own root, so
          recursive spawns in different domains never share a list) *)
}

let new_env ?parent () = { vars = Hashtbl.create 16; parent; cilk_spawned = [] }

let rec root_env env =
  match env.parent with Some p -> root_env p | None -> env

let rec lookup env name =
  match Hashtbl.find_opt env.vars name with
  | Some r -> r
  | None -> (
      match env.parent with
      | Some p -> lookup p name
      | None -> err "unbound variable %s" name)

let declare env name v = Hashtbl.replace env.vars name (ref v)

(* --- control flow ------------------------------------------------------------ *)

exception Return_exc of value
exception Break_exc
exception Continue_exc

(* --- provenance enrichment ------------------------------------------------- *)

(* Runtime failures that deserve a source location.  Anything else —
   control flow, assertion failures, already-located errors — passes
   through untouched. *)
let message_of_exn = function
  | Interp_error m
  | Runtime.Shape.Shape_error m
  | Nd.Type_error m
  | Nd.Io_error m
  | S.Type_error m ->
      Some m
  | Runtime.Rc.Use_after_free id ->
      Some (Printf.sprintf "use of matrix cell #%d after its count reached 0" id)
  | Runtime.Rc.Double_free id ->
      Some (Printf.sprintf "reference count of matrix cell #%d went negative" id)
  | Support.Failpoint.Injected n ->
      Some (Printf.sprintf "injected fault at failpoint %s" n)
  | _ -> None

(* [locate sp f] — run [f]; if a runtime failure escapes, re-raise it
   carrying [sp] (the innermost enclosing provenance wins, so an already
   located error is not re-wrapped).  A {!Runtime.Limits.Resource_limit}
   keeps its own exception but gains the span. *)
let locate sp f =
  try f () with
  | (Return_exc _ | Break_exc | Continue_exc | Runtime_error _) as e -> raise e
  | Runtime.Limits.Resource_limit ({ v_span = None; _ } as v) ->
      raise (Runtime.Limits.Resource_limit { v with v_span = Some sp })
  | e -> (
      match message_of_exn e with
      | Some m -> raise (Runtime_error (m, sp))
      | None -> raise e)

let locate_opt prov f =
  match prov with Some sp -> locate sp f | None -> f ()

type ctx = {
  prog : program;
  pool : Runtime.Pool.t option;  (** [None] = run ParFor sequentially *)
  fs : (string, string) Hashtbl.t;
      (** virtual filesystem for readMatrix/writeMatrix: path -> temp file;
          lets translated programs do I/O hermetically in tests *)
  dir : string;  (** directory backing the virtual filesystem *)
}

let find_func ctx name =
  match List.find_opt (fun f -> f.f_name = name) ctx.prog.funcs with
  | Some f -> f
  | None -> err "undefined function %s" name

let resolve_path ctx p =
  match Hashtbl.find_opt ctx.fs p with
  | Some real -> real
  | None ->
      let real =
        Filename.concat ctx.dir
          (String.map (function '/' | '\\' -> '_' | c -> c) p)
      in
      Hashtbl.replace ctx.fs p real;
      real

let default_of_type = function
  | CInt -> VScal (S.I 0)
  | CFloat -> VScal (S.F 0.)
  | CBool -> VScal (S.B false)
  | CVec -> VVec (Runtime.Simd.splat 0. ~width:Runtime.Simd.default_width)
  | CVoid -> VUnit
  | CMat _ -> VNull
  | CTuple _ -> VNull

let rec eval (ctx : ctx) (env : env) (e : expr) : value =
  match e with
  | Int i -> VScal (S.I i)
  | Float f -> VScal (S.F f)
  | Bool b -> VScal (S.B b)
  | Str _ -> err "string literal outside readMatrix/writeMatrix"
  | Var v -> !(lookup env v)
  | Binop (Arith op, a, b) ->
      VScal (S.arith op (scal (eval ctx env a)) (scal (eval ctx env b)))
  | Binop (Cmp op, a, b) ->
      VScal (S.cmp op (scal (eval ctx env a)) (scal (eval ctx env b)))
  | Binop (Logic S.And, a, b) ->
      (* C short-circuit semantics *)
      if bool_of (eval ctx env a) then
        VScal (S.B (bool_of (eval ctx env b)))
      else VScal (S.B false)
  | Binop (Logic S.Or, a, b) ->
      if bool_of (eval ctx env a) then VScal (S.B true)
      else VScal (S.B (bool_of (eval ctx env b)))
  | Unop (Neg, a) -> VScal (S.neg (scal (eval ctx env a)))
  | Unop (Not, a) -> VScal (S.not_ (scal (eval ctx env a)))
  | Unop (IntOfFloat, a) -> VScal (S.I (int_of (eval ctx env a)))
  | Unop (FloatOfInt, a) -> VScal (S.F (float_of (eval ctx env a)))
  | Min (a, b) ->
      VScal (S.I (min (int_of (eval ctx env a)) (int_of (eval ctx env b))))
  | Call (name, args) ->
      let f = find_func ctx name in
      let argv = List.map (eval ctx env) args in
      call ctx f argv
  | TupleE es -> VTuple (Array.of_list (List.map (eval ctx env) es))
  | Field (a, i) -> (
      match eval ctx env a with
      | VTuple vs when i < Array.length vs -> vs.(i)
      | v -> err "field .f%d of non-tuple %a" i pp_value v)
  | MAlloc (el, dims) ->
      let sh = Array.of_list (List.map (fun d -> int_of (eval ctx env d)) dims) in
      Array.iter (fun d -> if d < 0 then err "negative matrix extent %d" d) sh;
      let m = Nd.create el sh in
      Support.Telemetry.bump c_mat_allocs;
      VMat (Runtime.Rc.alloc ~bytes:(Nd.size m * 4) m)
  | MGetFlat (me, off) ->
      let m = mat (eval ctx env me) in
      let o = int_of (eval ctx env off) in
      if o < 0 || o >= Nd.size m then
        err "flat offset %d out of bounds for %s" o
          (Runtime.Shape.to_string (Nd.shape m))
      else VScal (Nd.get_flat m o)
  | MDim (me, d) ->
      let m = mat (eval ctx env me) in
      VScal (S.I (Nd.dim_size m (int_of (eval ctx env d))))
  | MSize me -> VScal (S.I (Nd.size (mat (eval ctx env me))))
  | MRead pe -> (
      match pe with
      | Str p ->
          let m = Nd.read_file (resolve_path ctx p) in
          Support.Telemetry.bump c_mat_allocs;
          VMat (Runtime.Rc.alloc ~bytes:(Nd.size m * 4) m)
      | _ -> err "readMatrix requires a literal path")
  | VecSplat a ->
      VVec
        (Runtime.Simd.splat (float_of (eval ctx env a))
           ~width:Runtime.Simd.default_width)
  | VecGather (me, base, stride) ->
      let m = mat (eval ctx env me) in
      let b = int_of (eval ctx env base) in
      let s = int_of (eval ctx env stride) in
      let w = Runtime.Simd.default_width in
      VVec
        (Array.init w (fun k ->
             let o = b + (k * s) in
             if o < 0 || o >= Nd.size m then
               err "vector lane offset %d out of bounds" o
             else Runtime.Simd.to_f32 (S.to_float (Nd.get_flat m o))))
  | VecBin (op, a, b) ->
      let x = vecv (eval ctx env a) and y = vecv (eval ctx env b) in
      let f =
        match op with
        | S.Add -> Runtime.Simd.add
        | S.Sub -> Runtime.Simd.sub
        | S.Mul -> Runtime.Simd.mul
        | S.Div -> Runtime.Simd.div
        | S.Mod -> err "vector modulo unsupported"
      in
      VVec (f x y)
  | VecHsum a -> VScal (S.F (Runtime.Simd.hsum (vecv (eval ctx env a))))

and assign ctx env lv v =
  match lv with
  | LVar name -> lookup env name := v
  | LField (lv', i) -> (
      let cur = eval_lvalue ctx env lv' in
      match !cur with
      | VTuple vs when i < Array.length vs ->
          let vs' = Array.copy vs in
          vs'.(i) <- v;
          cur := VTuple vs'
      | x -> err "field assignment .f%d on %a" i pp_value x)

and eval_lvalue _ctx env = function
  | LVar name -> lookup env name
  | LField _ -> err "nested tuple lvalues are flattened by lowering"

and exec (ctx : ctx) (env : env) (s : stmt) : unit =
  match s with
  | Decl (t, name, init) ->
      let v =
        match init with
        | Some e -> eval ctx env e
        | None -> default_of_type t
      in
      declare env name v
  | Assign (lv, e) -> assign ctx env lv (eval ctx env e)
  | MSetFlat (me, off, ve) ->
      let m = mat (eval ctx env me) in
      let o = int_of (eval ctx env off) in
      if o < 0 || o >= Nd.size m then
        err "flat offset %d out of bounds for %s" o
          (Runtime.Shape.to_string (Nd.shape m))
      else begin
        Support.Telemetry.bump c_stores;
        Nd.set_flat m o (scal (eval ctx env ve))
      end
  | VecScatter (me, base, stride, ve) ->
      let m = mat (eval ctx env me) in
      let b = int_of (eval ctx env base) in
      let st = int_of (eval ctx env stride) in
      let v = vecv (eval ctx env ve) in
      Array.iteri
        (fun k x ->
          let o = b + (k * st) in
          if o < 0 || o >= Nd.size m then err "scatter offset %d out of bounds" o
          else Nd.set_flat m o (S.F (Runtime.Simd.to_f32 x)))
        v
  | If (c, a, b) ->
      if bool_of (eval ctx env c) then exec_block ctx env a
      else exec_block ctx env b
  | While (c, b) -> (
      try
        while bool_of (eval ctx env c) do
          Runtime.Limits.tick ();
          try exec_block ctx env b with Continue_exc -> ()
        done
      with Break_exc -> ())
  | For l ->
      let bound = int_of (eval ctx env l.bound) in
      let body () =
        locate_opt l.prov (fun () ->
            try
              for i = 0 to bound - 1 do
                Runtime.Limits.tick ();
                let inner = new_env ~parent:env () in
                declare inner l.index (VScal (S.I i));
                try exec_block ctx inner l.body with Continue_exc -> ()
              done
            with Break_exc -> ())
      in
      (* Inside a parallel region the dispatching ParFor row owns the
         time (workers would otherwise multiply-count wall clock and
         contend on the profiler mutex every iteration). *)
      if
        Support.Profile.is_enabled ()
        && l.prov <> None
        && not (Support.Profile.in_region ())
      then begin
        Support.Profile.enter (Option.get l.prov);
        Fun.protect
          ~finally:(fun () -> Support.Profile.exit_ ~iters:bound ())
          body
      end
      else body ()
  | ParFor l ->
      Support.Telemetry.bump c_parfor;
      let bound = int_of (eval ctx env l.bound) in
      let body () =
        locate_opt l.prov (fun () ->
            match ctx.pool with
            | None ->
                for i = 0 to bound - 1 do
                  Runtime.Limits.tick ();
                  let inner = new_env ~parent:env () in
                  declare inner l.index (VScal (S.I i));
                  exec_block ctx inner l.body
                done
            | Some pool ->
                (* The with-loop generator guarantees disjoint index sets, so
                   iterations write disjoint elements (§III-A4).  Guided chunking
                   load-balances bodies of uneven cost (matrixMap over slices,
                   conncomp frames); the pool re-raises the first body exception
                   at the stop barrier with its backtrace, retrying chunks
                   that died to a recoverable fault.  The [locate_opt]
                   wrapper sits outside the dispatch, so whatever the
                   barrier re-raises gains this loop's provenance. *)
                Runtime.Pool.parallel_for pool 0 bound (fun i ->
                  Runtime.Limits.tick ();
                  let inner = new_env ~parent:env () in
                  declare inner l.index (VScal (S.I i));
                  exec_block ctx inner l.body))
      in
      if
        Support.Profile.is_enabled ()
        && l.prov <> None
        && not (Support.Profile.in_region ())
      then begin
        let sp = Option.get l.prov in
        let dispatched = ctx.pool <> None in
        Support.Telemetry.with_span ~phase:"interp"
          ~args:[ ("prov", Support.Pos.span_to_string sp) ]
          "parfor" (fun () ->
            Support.Profile.enter sp;
            if dispatched then Support.Profile.open_region sp;
            Fun.protect
              ~finally:(fun () ->
                Support.Profile.exit_ ~iters:bound
                  ~dispatches:(if dispatched then 1 else 0)
                  ~par:dispatched ())
              body)
      end
      else body ()
  | ExprS e -> ignore (eval ctx env e)
  | Return None -> raise (Return_exc VUnit)
  | Return (Some e) -> raise (Return_exc (eval ctx env e))
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | RcInc e -> rc_adjust Runtime.Rc.incr_ (eval ctx env e)
  | RcDec e -> rc_adjust Runtime.Rc.decr_ (eval ctx env e)
  | MWrite (pe, me) -> (
      match pe with
      | Str p ->
          Nd.write_file (resolve_path ctx p) (mat (eval ctx env me))
      | _ -> err "writeMatrix requires a literal path")
  | Comment _ -> ()
  | Block b -> exec_block ctx env b
  | Spawn (lv, fname, args) ->
      let f = find_func ctx fname in
      let argv = List.map (eval ctx env) args in
      let target =
        match lv with
        | None -> None
        | Some (LVar v) -> Some (lookup env v)
        | Some (LField _) -> err "spawn into a tuple field is unsupported"
      in
      let dom = Domain.spawn (fun () -> call ctx f argv) in
      let root = root_env env in
      root.cilk_spawned <- { s_dom = dom; s_target = target } :: root.cilk_spawned
  | Sync -> sync (root_env env)
  | Located (sp, b) ->
      (* Provenance block, not a scope: the statements run in the current
         environment.  Timed only for top-level straight-line code (empty
         frame stack, no active parallel region) — loops are the
         aggregation grain everywhere else, so per-statement clock reads
         stay out of hot bodies. *)
      locate sp (fun () ->
          if
            Support.Profile.is_enabled ()
            && Support.Profile.depth () = 0
            && not (Support.Profile.in_region ())
          then begin
            Support.Profile.enter sp;
            Fun.protect
              ~finally:(fun () -> Support.Profile.exit_ ())
              (fun () -> List.iter (exec ctx env) b)
          end
          else List.iter (exec ctx env) b)
  | Site (_, b) ->
      (* Decision wrapper, not a scope: the payload runs in the current
         environment.  Only reachable when interpreting intermediate IR —
         a finished pipeline leaves no [Site] nodes behind. *)
      List.iter (exec ctx env) b

and sync root =
  (* join in spawn order; propagate the first child exception *)
  let entries = List.rev root.cilk_spawned in
  root.cilk_spawned <- [];
  let failure = ref None in
  List.iter
    (fun e ->
      match Domain.join e.s_dom with
      | v -> Option.iter (fun r -> r := v) e.s_target
      | exception exn -> if !failure = None then failure := Some exn)
    entries;
  match !failure with Some exn -> raise exn | None -> ()

and rc_adjust f v =
  (* Retain/release of NULL is a no-op (C semantics); tuples adjust every
     matrix they hold (the lowered struct owns its fields). *)
  match v with
  | VNull -> ()
  | VMat rc -> f rc
  | VTuple vs -> Array.iter (rc_adjust f) vs
  | v -> err "rc operation on %a" pp_value v

and exec_block ctx env stmts =
  let scope = new_env ~parent:env () in
  List.iter (exec ctx scope) stmts

and call ctx (f : func) (args : value list) : value =
  Support.Telemetry.bump c_calls;
  if List.length args <> List.length f.f_params then
    err "%s expects %d arguments, got %d" f.f_name (List.length f.f_params)
      (List.length args);
  let env = new_env () in
  List.iter2 (fun (_, name) v -> declare env name v) f.f_params args;
  (* Cilk semantics: every function has an implicit sync before returning;
     [env] is this invocation's root, so the spawn list is per-call and
     per-domain. *)
  match
    List.iter (exec ctx env) f.f_body;
    VUnit
  with
  | v ->
      sync env;
      v
  | exception Return_exc v ->
      sync env;
      v
  | exception exn ->
      (try sync env with _ -> ());
      raise exn

(** [run ?pool ~dir prog args] — call the program's entry function.
    [dir] hosts the program's matrix files (virtual filesystem). *)
let run ?pool ~dir (prog : program) (args : value list) : value =
  let ctx = { prog; pool; fs = Hashtbl.create 8; dir } in
  (* An aborted run never executes its scope-exit RcDec statements, so its
     allocations would sit in the live registry forever (a phantom leak
     that also keeps counting against --max-bytes).  Mark the ledger here
     and drain everything allocated after the mark on any escape. *)
  let ledger_mark = Runtime.Rc.mark () in
  try call ctx (find_func ctx prog.main) args
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Runtime.Rc.drain_since ledger_mark);
    Printexc.raise_with_backtrace e bt

(** [provide_input ?dir path m] — place matrix [m] where a translated
    program's [readMatrix path] will find it. *)
let provide_input ~dir path m =
  let real =
    Filename.concat dir (String.map (function '/' | '\\' -> '_' | c -> c) path)
  in
  Runtime.Ndarray.write_file real m

(** [fetch_output ~dir path] — read back a matrix the program wrote with
    [writeMatrix path]. *)
let fetch_output ~dir path =
  let real =
    Filename.concat dir (String.map (function '/' | '\\' -> '_' | c -> c) path)
  in
  Runtime.Ndarray.read_file real
