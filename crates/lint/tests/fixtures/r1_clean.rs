//! R1 clean twin: every public mutating fn reaches the epoch bump —
//! transitively.

pub struct Document {
    nodes: Vec<u32>,
}

impl Document {
    fn invalidate_indexes(&mut self) {
        self.nodes.clear();
    }

    fn insert_at_end(&mut self, value: u32) {
        self.nodes.push(value);
        self.invalidate_indexes();
    }

    pub fn append_child(&mut self, parent: u32, child: u32) {
        self.insert_at_end(parent + child);
    }

    pub fn set_tag(&mut self, tag_value: u32) {
        let tag = tag_value;
        self.nodes.push(tag);
        self.invalidate_indexes();
    }

    pub fn remove_child(&mut self, child: u32) {
        self.nodes.retain(|&n| n != child);
        self.invalidate_indexes();
    }
}
