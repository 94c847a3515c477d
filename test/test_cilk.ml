(* The Cilk-style extension (§VIII future work): spawn/sync semantics,
   implicit sync at function return, composability with the matrix
   extension, and the domain-specific error checks. *)

module S = Runtime.Scalar
module Nd = Runtime.Ndarray

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let c = Driver.compose [ Driver.matrix; Driver.refptr; Driver.cilk ]

let run_ok ?dir src =
  match Driver.run ?dir c src [] with
  | Driver.Ok_ v -> v
  | Driver.Failed ds ->
      Alcotest.failf "pipeline failed: %s" (Driver.diags_to_string ds)

let test_composability () =
  let r = Grammar.Determinism.check Driver.effective_host Driver.cilk.Driver.grammar in
  Alcotest.(check bool) "cilk passes isComposable" true
    r.Grammar.Determinism.passes;
  (* spawn/sync use fresh marking terminals: strict marking, no notes *)
  Alcotest.(check (list string)) "no anchored-operator notes" []
    (List.filter_map
       (fun v ->
         if v.Grammar.Determinism.rule = "infix-anchor" then
           Some v.Grammar.Determinism.detail
         else None)
       r.Grammar.Determinism.notes)

let test_spawn_scalar_results () =
  let src =
    {|
int fib(int n) {
  if (n <= 1) { return n; }
  int a = 0;
  int b = 0;
  spawn a = fib(n - 1);
  spawn b = fib(n - 2);
  sync;
  return a + b;
}
int main() { return fib(10); }
|}
  in
  match run_ok src with
  | Interp.Eval.VScal (S.I 55) -> ()
  | v -> Alcotest.failf "fib(10) = %a" Interp.Eval.pp_value v

let test_implicit_sync_at_return () =
  (* no explicit sync: the implicit one must still deliver the results *)
  let src =
    {|
int one() { return 1; }
int main() {
  int a = 0;
  spawn a = one();
  sync;
  int b = 0;
  spawn b = one();
  return a * 10 + b;
}
|}
  in
  (* b is assigned by the implicit sync before main returns, but the
     return expression is evaluated before it — so only a is visible:
     exactly Cilk's race rule.  Use the value to document the semantics. *)
  match run_ok src with
  | Interp.Eval.VScal (S.I 10) -> ()
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let test_spawn_into_shared_matrix () =
  (* the Cilk idiom for matrix results: children write disjoint regions *)
  let src =
    {|
int fillRow(Matrix int <2> m, int row) {
  int n = dimSize(m, 1);
  for (int j = 0; j < n; j++) { m[row, j] = row * 100 + j; }
  return row;
}
int main() {
  Matrix int <2> m = init(Matrix int <2>, 4, 8);
  for (int i = 0; i < 4; i++) {
    spawn fillRow(m, i);
  }
  sync;
  writeMatrix("m.data", m);
  return 0;
}
|}
  in
  Tmp.with_dir @@ fun dir ->
  Runtime.Rc.reset ();
  ignore (run_ok ~dir src);
  Alcotest.(check int) "no leaks" 0 (Runtime.Rc.live_count ());
  let m = Interp.Eval.fetch_output ~dir "m.data" in
  let ok = ref true in
  for i = 0 to 3 do
    for j = 0 to 7 do
      if S.to_int (Nd.get m [| i; j |]) <> (i * 100) + j then ok := false
    done
  done;
  Alcotest.(check bool) "all rows filled by spawned children" true !ok

let test_cilk_with_matrix_ext () =
  (* both extensions active in one program: with-loops inside spawned
     functions *)
  let src =
    {|
int rowSum(Matrix int <2> m, int i) {
  int n = dimSize(m, 1);
  return with ([0] <= [j] < [n]) fold (+, 0, m[i, j]);
}
int main() {
  Matrix int <2> m = init(Matrix int <2>, 2, 5);
  for (int i = 0; i < 2; i++) {
    for (int j = 0; j < 5; j++) { m[i, j] = i + j; }
  }
  int a = 0;
  int b = 0;
  spawn a = rowSum(m, 0);
  spawn b = rowSum(m, 1);
  sync;
  return a * 100 + b;
}
|}
  in
  match run_ok src with
  | Interp.Eval.VScal (S.I 1015) -> () (* 0+1+2+3+4=10, 1+..+5=15 *)
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let expect_error src frag =
  match Driver.run c src [] with
  | Driver.Ok_ _ -> Alcotest.failf "expected error %S" frag
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S (got %s)" frag text)
        true (is_infix ~affix:frag text)

let test_cilk_errors () =
  expect_error "int main() { spawn nosuch(); return 0; }"
    "spawn of undefined function";
  expect_error
    {|int f(int x) { return x; }
      int main() { int a = 0; spawn a = f(true); sync; return a; }|}
    "spawn argument";
  expect_error
    {|Matrix int <1> f() { return init(Matrix int <1>, 3); }
      int main() { Matrix int <1> a = init(Matrix int <1>, 3);
        spawn a = f(); sync; return 0; }|}
    "spawn target must receive a scalar";
  expect_error "int f() { return 1; } int main() { spawn x = f(); return 0; }"
    "unbound spawn target"

let test_spawn_keyword_context () =
  (* without the cilk extension, `spawn` and `sync` are plain identifiers *)
  let plain = Driver.compose [ Driver.matrix ] in
  match
    Driver.run plain
      "int main() { int spawn = 3; int sync = 4; return spawn * sync; }" []
  with
  | Driver.Ok_ (Interp.Eval.VScal (S.I 12)) -> ()
  | Driver.Ok_ v -> Alcotest.failf "got %a" Interp.Eval.pp_value v
  | Driver.Failed ds -> Alcotest.failf "failed: %s" (Driver.diags_to_string ds)

let test_emitted_c () =
  let src =
    {|
int work(int x) { return x; }
int main() {
  int a = 0;
  spawn a = work(1);
  sync;
  return a;
}
|}
  in
  match Driver.compile_to_c c src with
  | Driver.Ok_ text ->
      Alcotest.(check bool) "cilk_spawn emitted" true
        (is_infix ~affix:"a = cilk_spawn work(1);" text);
      Alcotest.(check bool) "cilk_sync emitted" true
        (is_infix ~affix:"cilk_sync;" text)
  | Driver.Failed ds -> Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)

let suite =
  [
    Alcotest.test_case "cilk passes isComposable (strict marking)" `Quick
      test_composability;
    Alcotest.test_case "spawned fib" `Quick test_spawn_scalar_results;
    Alcotest.test_case "implicit sync at return (race rule)" `Quick
      test_implicit_sync_at_return;
    Alcotest.test_case "spawn into shared matrix regions" `Quick
      test_spawn_into_shared_matrix;
    Alcotest.test_case "cilk + matrix extensions together" `Quick
      test_cilk_with_matrix_ext;
    Alcotest.test_case "cilk semantic errors" `Quick test_cilk_errors;
    Alcotest.test_case "spawn/sync as identifiers without cilk" `Quick
      test_spawn_keyword_context;
    Alcotest.test_case "cilk_spawn / cilk_sync in emitted C" `Quick
      test_emitted_c;
  ]
