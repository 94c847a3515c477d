(* Regenerates the golden fixtures under test/golden/.  The .out run
   results and the .explain report are the semantic oracle; the emitted
   C pins the generated code, temporaries' names included.  Rerun only
   when the *intended* output changes:

     dune exec test/golden_gen.exe -- test/golden

   `make golden-check` regenerates into a scratch directory and diffs, so
   this tool and the committed fixtures cannot drift apart.

   Each corpus entry <name> gets <name>.mc (source), <name>.par.c /
   <name>.seq.c (emitted C with auto-par on/off, fuse and copy-elim at
   their defaults).  Self-contained programs (no readMatrix) also get
   <name>.out — the interpreter result.  transform_tiling additionally
   gets .explain (the default `mmc explain` remark table with caret
   excerpts). *)

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let write path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let emit ~auto_par src =
  let config = Driver.Pipeline.enable (Driver.default_config all4) "auto-par" auto_par in
  match Driver.compile_to_c ~config all4 src with
  | Driver.Ok_ text -> text
  | Driver.Failed ds -> die "emit failed: %s" (Driver.diags_to_string ds)

let run_result src =
  let config = Driver.explain_config all4 in
  match Driver.run ~config all4 src [] with
  | Driver.Ok_ v -> Fmt.str "%a" Interp.Eval.pp_value v
  | Driver.Failed ds -> die "run failed: %s" (Driver.diags_to_string ds)

let explain_text src =
  (* explain defaults to the explain config: auto-par on. *)
  match Driver.explain all4 src with
  | Driver.Ok_ _, report -> Driver.Explain_report.to_string ~src report
  | Driver.Failed ds, _ ->
      die "explain failed: %s" (Driver.diags_to_string ds)

(* --- deterministic random shapes -------------------------------------- *)

(* Tiny structured generator (NOT QCheck: the .mc sources are committed,
   so the generator only has to be deterministic at blessing time). *)
let rand_prog i =
  Random.init (4242 + i);
  let size () = 3 + Random.int 5 in
  let fconst () = Printf.sprintf "%d.%df" (Random.int 4) (Random.int 10) in
  let op () = match Random.int 3 with 0 -> "+" | 1 -> "-" | _ -> "*" in
  let m = size () and n = size () in
  match i mod 3 with
  | 0 ->
      (* elementwise chain + matmul + fold *)
      Printf.sprintf
        {|
int main() {
  int m = %d;
  int n = %d;
  Matrix float <2> a = init(Matrix float <2>, m, n);
  a = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float)(i %s j) + %s);
  Matrix float <2> b = a %s %s;
  Matrix float <2> c = init(Matrix float <2>, m, m);
  c = a * (with ([0,0] <= [i,j] < [n,m]) genarray ([n,m], b[j, i]));
  float t = with ([0,0] <= [i,j] < [m,m]) fold (+, 0f, c[i, j]);
  return (int) t;
}
|}
        m n (op ()) (fconst ()) (op ()) (fconst ())
  | 1 ->
      (* identity slice + transform script + fold *)
      let script =
        match Random.int 3 with
        | 0 -> "split j by 2, jin, jout"
        | 1 -> "interchange i, j"
        | _ -> "parallelize j"
      in
      Printf.sprintf
        {|
int main() {
  int m = %d;
  int n = %d;
  Matrix float <2> g = init(Matrix float <2>, m, n);
  g = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float) (i * n + j))
    transform %s;
  Matrix float <2> view = g[:, :];
  float t = with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, view[i, j] %s %s);
  return (int) t;
}
|}
        m n script (op ()) (fconst ())
  | _ ->
      (* helper function (rc traffic, call temp) + row slice + fold *)
      Printf.sprintf
        {|
float rowSum(Matrix float <2> g, int i) {
  Matrix float <1> row = g[i, :];
  int n = dimSize(row, 0);
  return with ([0] <= [k] < [n]) fold (+, 0f, row[k] + %s);
}

int main() {
  int m = %d;
  int n = %d;
  Matrix float <2> g = init(Matrix float <2>, m, n);
  g = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float)(i %s j));
  Matrix float <1> sums = init(Matrix float <1>, m);
  sums = with ([0] <= [i] < [m]) genarray ([m], rowSum(g, i));
  return (int)(with ([0] <= [i] < [m]) fold (+, 0f, sums[i]));
}
|}
        (fconst ()) m n (op ())

(* --- corpus ------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let bless ?(runnable = false) name src =
    write (Filename.concat dir (name ^ ".mc")) src;
    write (Filename.concat dir (name ^ ".par.c")) (emit ~auto_par:true src);
    write (Filename.concat dir (name ^ ".seq.c")) (emit ~auto_par:false src);
    if runnable then
      write (Filename.concat dir (name ^ ".out")) (run_result src);
    Printf.printf "blessed %s\n%!" name
  in
  bless "fig1_temporal_mean" Eddy.Programs.fig1_temporal_mean;
  bless "fig9_transformed" Eddy.Programs.fig9_transformed;
  bless "fig9_interchange" (Eddy.Programs.fig9_with_script "interchange i, j");
  bless "fig9_tile" (Eddy.Programs.fig9_with_script "tile i, j by 4");
  bless "fig4_conncomp" Eddy.Programs.fig4_conncomp;
  bless "fig8_scoring" Eddy.Programs.fig8_scoring;
  bless "fig1_with_slice_copy" Eddy.Programs.fig1_with_slice_copy;
  let tiling = read_file "examples/transform_tiling.mc" in
  bless ~runnable:true "transform_tiling" tiling;
  write (Filename.concat dir "transform_tiling.explain") (explain_text tiling);
  bless "eddy_energy" (read_file "examples/eddy_energy.mc");
  for i = 0 to 19 do
    bless ~runnable:true (Printf.sprintf "rand%02d" i) (rand_prog i)
  done
