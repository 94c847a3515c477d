(** Cilk-style parallelism as a pluggable language extension — the paper's
    stated future work (§VIII): "we are also developing an extension that
    adds Cilk [4] style parallelism constructs to C.  The goal is to
    determine how sophisticated run-times, like in Cilk, can be delivered
    as a pluggable language extension."

    Constructs:

    {v
      spawn f(args);          // run f concurrently, discard its result
      spawn x = f(args);      // x receives f's result at the next sync
      sync;                   // wait for every spawn of this function
    v}

    Every function has Cilk's implicit [sync] before returning.  Both
    statements start with a fresh marking terminal, so the extension
    passes the strict form of the modular determinism analysis — no
    anchored-operator caveats.

    Restrictions (documented simplifications of full Cilk):
    - [spawn x = f(...)]'s target must be a {e scalar} variable — matrix
      results would need ownership transfer across threads; matrix output
      is written through shared matrices into disjoint regions instead
      (the usual Cilk idiom);
    - reading [x] between its spawn and the next [sync] is a race, exactly
      as in Cilk. *)

open Grammar.Cfg
module A = Cminus.Ast
module T = Cminus.Types

let name = "cilk"

type A.ext_stmt +=
  | SSpawn of string option * string * A.expr list
      (** (target variable, function, arguments) *)
  | SSync

let () =
  A.register_ext_stmt_printer (function
    | SSpawn (_, f, _) -> Some (Printf.sprintf "spawn %s(...)" f)
    | SSync -> Some "sync"
    | _ -> None)

let grammar : Grammar.Cfg.t =
  let kw = keyword ~owner:name in
  let p = production ~owner:name in
  {
    name;
    terminals = [ kw "KW_spawn" "spawn"; kw "KW_sync" "sync" ];
    layout = [];
    productions =
      [
        p ~name:"simple_spawn_call" "Simple"
          [ T "KW_spawn"; T "ID"; T "LP"; N "ArgsOpt"; T "RP" ];
        p ~name:"simple_spawn_assign" "Simple"
          [
            T "KW_spawn"; T "ID"; T "ASSIGN"; T "ID"; T "LP"; N "ArgsOpt";
            T "RP";
          ];
        p ~name:"simple_sync" "Simple" [ T "KW_sync" ];
      ];
    start = None;
  }

module Tree = Parser.Tree
module B = Cminus.Build

let lexeme t =
  match t with
  | Tree.Leaf tok -> tok.Lexer.Token.lexeme
  | _ -> B.err (Tree.span t) "expected a token"

let register () =
  Hashtbl.replace B.ext_stmt_builders "simple_spawn_call"
    (fun (ctx : B.ctx) t ->
      match t with
      | Tree.Node (_, [ _; f; _; args; _ ], span) ->
          [
            A.mk_stmt
              (A.ExtS (SSpawn (None, lexeme f, ctx.B.expr_list args)))
              span;
          ]
      | _ -> B.err (Tree.span t) "malformed spawn");
  Hashtbl.replace B.ext_stmt_builders "simple_spawn_assign"
    (fun (ctx : B.ctx) t ->
      match t with
      | Tree.Node (_, [ _; x; _; f; _; args; _ ], span) ->
          [
            A.mk_stmt
              (A.ExtS (SSpawn (Some (lexeme x), lexeme f, ctx.B.expr_list args)))
              span;
          ]
      | _ -> B.err (Tree.span t) "malformed spawn assignment");
  Hashtbl.replace B.ext_stmt_builders "simple_sync" (fun _ctx t ->
      [ A.mk_stmt (A.ExtS SSync) (Tree.span t) ])

(* --- semantic analysis ----------------------------------------------------------- *)

module C = Cminus.Check

let check_hooks : C.hooks =
  {
    (C.no_hooks name) with
    C.h_stmt =
      (fun t ext span ->
        match ext with
        | SSync -> true
        | SSpawn (target, fname, args) ->
            (match Hashtbl.find_opt t.C.funcs fname with
            | None -> C.error t span "spawn of undefined function '%s'" fname
            | Some (ptys, rty) ->
                if List.length args <> List.length ptys then
                  C.error t span "%s expects %d argument(s), got %d" fname
                    (List.length ptys) (List.length args)
                else
                  List.iter2
                    (fun a pty ->
                      let ta = C.check_expr ~expected:pty t a in
                      if not (T.assignable ~dst:pty ~src:ta) then
                        C.error t a.A.espan
                          "spawn argument of type %s where %s is expected"
                          (T.to_string ta) (T.to_string pty))
                    args ptys;
                (match (target, rty) with
                | None, _ -> ()
                | Some x, rty -> (
                    if not (T.is_scalar rty) then
                      C.error t span
                        "spawn target must receive a scalar (got %s); write \
                         matrix results through a shared matrix instead"
                        (T.to_string rty);
                    match C.lookup t x with
                    | None -> C.error t span "unbound spawn target '%s'" x
                    | Some tx ->
                        if not (T.assignable ~dst:tx ~src:rty) then
                          C.error t span "cannot assign %s to spawn target %s"
                            (T.to_string rty) (T.to_string tx))));
            true
        | _ -> false);
  }

(* --- lowering ----------------------------------------------------------------------- *)

module L = Cminus.Lower

let lower_hooks : L.hooks =
  {
    (L.no_hooks name) with
    L.l_stmt =
      (fun t ext _span ->
        match ext with
        | SSync -> Some [ Cir.Ir.Sync ]
        | SSpawn (target, fname, args) ->
            let stmts, argv =
              List.fold_left
                (fun (ss, es) a ->
                  let s, e = L.lower_expr t a in
                  (ss @ s, es @ [ e ]))
                ([], []) args
            in
            let lv = Option.map (fun x -> Cir.Ir.LVar (L.resolve t x)) target in
            Some (stmts @ [ Cir.Ir.Spawn (lv, fname, argv) ])
        | _ -> None);
  }

let ag_spec : Ag.Wellformed.spec =
  let fp = Ag.Wellformed.full_prod ~owner:name in
  {
    sp_name = name;
    attrs = [];
    prods =
      [
        fp ~lhs:"Simple" ~children:[ "ArgsOpt" ] ~defines:[ "errors"; "type" ]
          ~forwards:true "simple_spawn_call";
        fp ~lhs:"Simple" ~children:[ "ArgsOpt" ] ~defines:[ "errors"; "type" ]
          ~forwards:true "simple_spawn_assign";
        fp ~lhs:"Simple" ~children:[] ~defines:[ "errors"; "type" ]
          "simple_sync";
      ];
  }
