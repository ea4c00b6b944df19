//! `rrb` — command-line driver for the contention-bound toolkit.
//!
//! Every command, its positional and the flags it takes are declared in
//! one table in `commands.rs`; `rrb help` lists them all.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(commands::CliError::Failed(output)) => {
            print!("{output}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
