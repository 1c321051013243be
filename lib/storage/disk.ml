type t = {
  env : Repro_sim.Env.t;
  metrics : Repro_sim.Metrics.t;
  pages : Page.t Page_id.Tbl.t;
}

let create env metrics = { env; metrics; pages = Page_id.Tbl.create 64 }

let read t pid =
  Repro_sim.Env.charge_page_read t.env t.metrics;
  Option.map Page.copy (Page_id.Tbl.find_opt t.pages pid)

let write t page =
  Repro_sim.Env.charge_page_write t.env t.metrics ();
  Page_id.Tbl.replace t.pages (Page.id page) (Page.copy page)

let psn_on_disk t pid =
  Repro_sim.Env.charge_page_read t.env t.metrics;
  Option.map Page.psn (Page_id.Tbl.find_opt t.pages pid)

let mem t pid = Page_id.Tbl.mem t.pages pid
